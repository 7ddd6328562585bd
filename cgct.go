// Package cgct is a library-level reproduction of "Improving Multiprocessor
// Performance with Coarse-Grain Coherence Tracking" (Cantin, Lipasti &
// Smith, ISCA 2005).
//
// It bundles a deterministic event-driven timing simulator of a
// Fireplane-like broadcast multiprocessor (MOESI snooping, write-back
// caches, stream prefetching, distributed memory controllers) with the
// paper's contribution: per-processor Region Coherence Arrays running the
// seven-state region protocol, which route memory requests directly to
// memory — or complete them locally — whenever the coarse-grain state
// proves a broadcast unnecessary.
//
// The high-level entry point is Run:
//
//	res, err := cgct.Run("tpc-w", cgct.Options{CGCT: true, RegionBytes: 512})
//
// Compare runs baseline and CGCT back to back:
//
//	cmp, err := cgct.Compare("tpc-w", 512, cgct.Options{})
//	fmt.Printf("run-time reduction: %.1f%%\n", cmp.RuntimeReductionPct)
//
// The reproduction harness for each of the paper's tables and figures
// lives in internal/experiments and is exposed through cmd/cgctexperiments
// and the benchmarks in bench_test.go.
package cgct

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cgct/internal/coherence"
	"cgct/internal/config"
	"cgct/internal/energy"
	"cgct/internal/sim"
	"cgct/internal/stats"
	"cgct/internal/trace"
	"cgct/internal/workload"
)

// Options selects the machine configuration and workload size for a run.
// The zero value reproduces the paper's baseline machine (Table 3) on the
// default trace length.
type Options struct {
	// Processors is the processor count (default 4, as in the paper).
	Processors int
	// OpsPerProc is the trace length per processor (default
	// workload.DefaultOpsPerProc).
	OpsPerProc int
	// Seed selects the deterministic workload/perturbation streams.
	Seed uint64
	// CGCT enables Coarse-Grain Coherence Tracking.
	CGCT bool
	// Directory replaces the snooping broadcast fabric with a full-map
	// directory protocol at the home memory controllers — the comparison
	// system of the paper's introduction. Composes with CGCT: the RCA
	// then routes requests around the home pipeline instead of around the
	// bus.
	Directory bool
	// RegionScout enables the Moshovos ISCA-2005 comparison technique (§2
	// of the paper): an untagged cached-region hash plus a small
	// not-shared-region table instead of a tagged RCA. Mutually exclusive
	// with CGCT and Directory.
	RegionScout bool
	// RegionBytes is the region size when CGCT is enabled (default 512).
	RegionBytes uint64
	// RCASets overrides the Region Coherence Array set count (default
	// 8192; the paper's half-size study uses 4096).
	RCASets uint64
	// ScaledBack selects the §3.4 scaled-back protocol: one snoop-response
	// bit and three region states (exclusive / not-exclusive / invalid)
	// instead of seven.
	ScaledBack bool
	// ReadSharedDirect selects the §3.1 design alternative: loads in
	// externally clean regions fetch Shared copies directly instead of
	// broadcasting for exclusive ones.
	ReadSharedDirect bool
	// L2SectorBytes, when non-zero, sectorises the L2 (one tag per sector
	// of this many bytes) — the §2 related-work alternative to CGCT.
	L2SectorBytes uint64
	// PrefetchRegionFilter enables the §6 extension: the region state
	// vetoes prefetches into externally dirty regions.
	PrefetchRegionFilter bool
	// RegionPrefetch enables the §6 region-state prefetch: sequential
	// streams probe the next region's global state ahead of their first
	// touch there.
	RegionPrefetch bool
	// PerturbCycles adds a uniform random delay in [0, PerturbCycles] to
	// each fabric request (run-to-run variability for confidence
	// intervals).
	PerturbCycles uint64
	// DebugChecks enables the expensive coherence invariants.
	DebugChecks bool
}

// Benchmark describes one available workload.
type Benchmark struct {
	Name     string
	Category string
	Comment  string
}

// PaperBenchmarks returns the names of the paper's nine Table 4
// benchmarks — the set the reproduction experiments run on. Benchmarks
// lists those plus the extra micro-workloads.
func PaperBenchmarks() []string { return workload.PaperNames() }

// Benchmarks lists the available workloads in the paper's Table 4 order.
func Benchmarks() []Benchmark {
	var out []Benchmark
	for _, n := range workload.Names() {
		info, err := workload.Lookup(n)
		if err != nil {
			continue
		}
		out = append(out, Benchmark{Name: info.Name, Category: info.Category, Comment: info.Comment})
	}
	return out
}

// CategoryTotals buckets request statistics the way Figure 2 does.
type CategoryTotals struct {
	Data       uint64
	Writebacks uint64
	IFetches   uint64
	DCBOps     uint64
}

func (c CategoryTotals) total() uint64 { return c.Data + c.Writebacks + c.IFetches + c.DCBOps }

// Result summarises one simulation run.
type Result struct {
	Benchmark   string
	CGCT        bool
	RegionBytes uint64
	Seed        uint64

	Cycles       uint64
	Instructions uint64

	// Fabric traffic.
	Requests     uint64 // all requests that reached the coherence fabric
	Broadcasts   uint64 // requests broadcast on the address network
	Directs      uint64 // requests sent directly to a memory controller
	Locals       uint64 // requests completed with no external request
	CacheToCache uint64

	// Per-category routing (Figure 7's stacks).
	RequestsByCat  CategoryTotals
	AvoidedByCat   CategoryTotals // direct + local
	BroadcastByCat CategoryTotals

	// Oracle classification (Figure 2) of the broadcasts performed, or
	// on the directory fabric of the home transactions: Unnecessary
	// counts those an omniscient protocol would have skipped, Necessary
	// the rest.
	UnnecessaryByCat CategoryTotals
	Unnecessary      uint64
	Necessary        uint64

	// Traffic (Figure 10).
	AvgBroadcastsPer100K  float64
	PeakBroadcastsPer100K uint64
	RegionProbes          uint64

	// Directory-fabric metrics (zero on the snooping fabric).
	Directory           bool
	DirMessages         uint64
	ThreeHops           uint64
	DirInvalidations    uint64
	DirFastPaths        uint64
	DirRegionNotifies   uint64
	DirEntriesAllocated uint64
	DirPeakEntries      uint64
	DirQueuedCycles     uint64

	// RegionScout marks a RegionScout run. It is omitted when false, so
	// every other key's payload stays byte-identical to what stores and
	// peers already hold, and the serving digests do not move.
	RegionScout bool `json:",omitempty"`
	// RegionScout metrics (zero unless enabled).
	NSRTInserts uint64
	NSRTHits    uint64

	// Upgrades counts upgrade requests that reached the fabric (the §3.1
	// read-shared alternative inflates these).
	Upgrades uint64

	// SnoopTagLookups counts remote tag probes caused by broadcasts (the
	// power cost Jetty attacks; CGCT's avoided broadcasts avoid these).
	// SnoopTagFiltered counts the probes that broadcasts skipped because
	// the snooped processor's region state proved its cache empty.
	SnoopTagLookups  uint64
	SnoopTagFiltered uint64

	// Memory behaviour.
	AvgDemandMissLatency float64
	DemandMisses         uint64
	DemandStallCycles    uint64
	L2MissRatio          float64

	// Energy is the §6-style energy breakdown of the run, in relative
	// units (one DRAM access = 100); see internal/energy for the model.
	Energy EnergyBreakdown

	// RCA behaviour (CGCT runs only).
	RCAHitRatio        float64
	RCAEvictions       uint64
	RCAEmptyEvictFrac  float64
	RCASelfInvals      uint64
	AvgLinesAtEviction float64
}

// EnergyBreakdown is the per-component energy of a run (relative units).
type EnergyBreakdown struct {
	Network   float64 // broadcasts + point-to-point requests
	TagProbes float64 // remote tag-array lookups
	DRAM      float64
	Transfers float64
	Region    float64 // region-tracking / directory overhead
	Total     float64
}

// UnnecessaryFraction returns the oracle's unnecessary share of the
// transactions it classified: broadcasts on the snooping fabric, home
// transactions on the directory.
func (r *Result) UnnecessaryFraction() float64 {
	if r.Unnecessary+r.Necessary == 0 {
		return 0
	}
	return float64(r.Unnecessary) / float64(r.Unnecessary+r.Necessary)
}

// AvoidedFraction returns the fraction of fabric requests that skipped the
// broadcast (direct + local).
func (r *Result) AvoidedFraction() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Directs+r.Locals) / float64(r.Requests)
}

// buildConfig converts Options to the internal machine description.
func buildConfig(o Options) (config.Config, Options) {
	cfg := config.Default()
	if o.Processors > 0 {
		cfg.Topology.Processors = o.Processors
	} else {
		o.Processors = cfg.Topology.Processors
	}
	if o.RegionBytes == 0 {
		o.RegionBytes = 512
	}
	if o.CGCT {
		cfg = cfg.WithCGCT(o.RegionBytes)
	} else {
		cfg.RCA.RegionBytes = o.RegionBytes // statistics granularity
	}
	cfg.Directory = o.Directory
	if o.RegionScout {
		cfg = cfg.WithRegionScout(o.RegionBytes)
	}
	if o.RCASets != 0 {
		cfg = cfg.WithRCASets(o.RCASets)
	}
	cfg.RCA.ThreeState = o.ScaledBack
	cfg.RCA.ReadSharedDirect = o.ReadSharedDirect
	cfg.L2SectorBytes = o.L2SectorBytes
	cfg.Proc.PrefetchRegionFilter = o.PrefetchRegionFilter
	cfg.Proc.RegionPrefetch = o.RegionPrefetch
	cfg.PerturbMaxCycles = o.PerturbCycles
	return cfg, o
}

// ResolveConfig exposes the Options → machine-config mapping: it returns
// the fully resolved internal configuration plus a normalised copy of o
// with defaults applied. The serving layer hashes both into
// content-addressed result-cache keys.
func ResolveConfig(o Options) (config.Config, Options) {
	return buildConfig(o)
}

// InvariantError is the structured error a run with DebugChecks returns
// when a coherence invariant is violated (see internal/coherence).
type InvariantError = coherence.InvariantError

// Progress is a shared counter of simulated events that a running
// simulation advances in batches; watchdogs poll it to distinguish a slow
// run from a stalled one.
type Progress = sim.Progress

// WithProgress returns a context that makes RunContext advance p as the
// simulation executes events.
func WithProgress(ctx context.Context, p *Progress) context.Context {
	return sim.WithProgress(ctx, p)
}

// Run simulates one benchmark under the given options.
func Run(benchmark string, o Options) (*Result, error) {
	return RunContext(context.Background(), benchmark, o)
}

// RunContext is Run with cancellation: the simulation aborts (returning
// ctx.Err()) shortly after ctx is cancelled, instead of running the
// workload to completion. When ctx carries a span recorder (see
// WithSpanRecorder), the run's phases — trace-compile, simulate,
// aggregate — are reported as contiguous wall-clock spans.
func RunContext(ctx context.Context, benchmark string, o Options) (*Result, error) {
	rec := spanRecorderFrom(ctx)
	t0 := time.Now()
	cfg, o2 := buildConfig(o)
	w, err := buildWorkload(ctx, benchmark, o2)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	recordSpan(rec, PhaseTraceCompile, t0, t1)
	system, err := sim.New(cfg, w, o2.Seed)
	if err != nil {
		return nil, err
	}
	defer system.Release()
	system.DebugChecks = o.DebugChecks
	run, err := system.RunContext(ctx)
	t2 := time.Now()
	recordSpan(rec, PhaseSimulate, t1, t2)
	if err != nil {
		return nil, err
	}
	res := summarize(benchmark, o2, run)
	recordSpan(rec, PhaseAggregate, t2, time.Now())
	return res, nil
}

// buildWorkload is the default workload path: the benchmark's op streams
// are served from the process-wide compiled-trace cache (internal/trace),
// so every simulation of the same (benchmark, processors, ops, seed) —
// sweep variants, repeated server jobs, benchmark iterations — replays
// one shared immutable slab, compiled exactly once. Workloads too large
// to materialise fall back to live per-op generation.
func buildWorkload(ctx context.Context, benchmark string, o Options) (workload.Workload, error) {
	// Feed trace compilation into the run's progress counter: a watchdog
	// polling it must see liveness while a large trace compiles, not a
	// stall that ends only when simulation events start.
	if p := sim.ProgressFrom(ctx); p != nil {
		ctx = trace.WithProgress(ctx, func(ops int) { p.Add(uint64(ops)) })
	}
	tr, err := trace.Get(ctx, trace.Key{
		Benchmark:  benchmark,
		Processors: o.Processors,
		OpsPerProc: o.OpsPerProc,
		Seed:       o.Seed,
	})
	if err == nil {
		return tr.Workload(), nil
	}
	if !errors.Is(err, trace.ErrTooLarge) {
		return workload.Workload{}, err
	}
	return workload.Build(benchmark, workload.Params{
		Processors: o.Processors,
		OpsPerProc: o.OpsPerProc,
		Seed:       o.Seed,
	})
}

// MustRun is Run that panics on error (examples, tests).
func MustRun(benchmark string, o Options) *Result {
	r, err := Run(benchmark, o)
	if err != nil {
		panic(err)
	}
	return r
}

func catTotals(a [stats.NCategories]uint64) CategoryTotals {
	return CategoryTotals{
		Data:       a[stats.CatData],
		Writebacks: a[stats.CatWriteback],
		IFetches:   a[stats.CatIFetch],
		DCBOps:     a[stats.CatDCB],
	}
}

func summarize(benchmark string, o Options, run *stats.Run) *Result {
	r := &Result{
		Benchmark:    benchmark,
		CGCT:         o.CGCT,
		RegionBytes:  o.RegionBytes,
		Seed:         o.Seed,
		Cycles:       uint64(run.Cycles),
		Instructions: run.Instructions,
		Requests:     run.TotalRequests(),
		Broadcasts:   run.TotalBroadcasts(),
		CacheToCache: run.CacheToCache,
		Unnecessary:  run.TotalUnnecessary(),
		Necessary:    run.TotalNecessary(),

		UnnecessaryByCat:      catTotals(run.OracleUnnecessary),
		AvgBroadcastsPer100K:  run.Windows.AvgPer100K(run.Cycles),
		PeakBroadcastsPer100K: run.Windows.Peak(),
		AvgDemandMissLatency:  run.AvgDemandMissLatency(),
		DemandMisses:          run.DemandMisses,
		DemandStallCycles:     run.DemandMissCycles,
		RegionProbes:          run.RegionProbes,
		Directory:             o.Directory,
		RegionScout:           o.RegionScout,
		DirMessages:           run.DirMessages,
		ThreeHops:             run.ThreeHops,
		DirInvalidations:      run.DirInvalidations,
		DirFastPaths:          run.DirFastPaths,
		DirRegionNotifies:     run.DirRegionNotifies,
		DirEntriesAllocated:   run.DirEntriesAllocated,
		DirPeakEntries:        run.DirPeakEntries,
		DirQueuedCycles:       run.DirQueuedCycles,
		NSRTInserts:           run.NSRTInserts,
		NSRTHits:              run.NSRTHits,
		SnoopTagLookups:       run.SnoopTagLookups,
		SnoopTagFiltered:      run.SnoopTagFiltered,
		Upgrades:              run.Requests[coherence.ReqUpgrade],
	}
	var reqCat, avoidCat, bcastCat [stats.NCategories]uint64
	for k := 0; k < coherence.NKinds; k++ {
		kind := coherence.ReqKind(k)
		c := stats.CategoryOf(kind)
		reqCat[c] += run.Requests[k]
		avoidCat[c] += run.Directs[k] + run.LocalDones[k]
		bcastCat[c] += run.Broadcasts[k]
		r.Directs += run.Directs[k]
		r.Locals += run.LocalDones[k]
	}
	r.RequestsByCat = catTotals(reqCat)
	r.AvoidedByCat = catTotals(avoidCat)
	r.BroadcastByCat = catTotals(bcastCat)
	if t := run.L2Hits + run.L2Misses; t > 0 {
		r.L2MissRatio = float64(run.L2Misses) / float64(t)
	}
	if t := run.RCAHits + run.RCAMisses; t > 0 {
		r.RCAHitRatio = float64(run.RCAHits) / float64(t)
	}
	eb := energy.Compute(run, o.Processors, energy.Default())
	r.Energy = EnergyBreakdown{
		Network: eb.Network, TagProbes: eb.TagProbes, DRAM: eb.DRAM,
		Transfers: eb.Transfers, Region: eb.Region, Total: eb.Total,
	}
	r.RCAEvictions = run.RCAEvictions
	r.RCASelfInvals = run.RCASelfInvals
	if run.RCAEvictions > 0 {
		r.RCAEmptyEvictFrac = float64(run.RCAEvictedByCount[0]) / float64(run.RCAEvictions)
		r.AvgLinesAtEviction = float64(run.RCALineSumAtEvict) / float64(run.RCAEvictions)
	}
	return r
}

// CompileTrace compiles a benchmark's workload into the columnar
// compiled-trace format and writes it to path (see internal/trace). The
// resulting file is versioned, integrity-checked, and replayable with
// RunCompiledTrace; it keeps the think-time gaps, so a replay under the
// same Options returns the same Result as Run.
func CompileTrace(benchmark, path string, o Options) error {
	_, o2 := buildConfig(o)
	tr, err := trace.Compile(context.Background(), benchmark, workload.Params{
		Processors: o2.Processors,
		OpsPerProc: o2.OpsPerProc,
		Seed:       o2.Seed,
	})
	if err != nil {
		return err
	}
	return tr.WriteFile(path)
}

// RunCompiledTrace replays a compiled-trace file written by CompileTrace
// through the simulator. The processor count is taken from the file;
// Options.Processors is ignored.
func RunCompiledTrace(path string, o Options) (*Result, error) {
	tr, err := trace.ReadFile(path)
	if err != nil {
		return nil, err
	}
	o.Processors = len(tr.Procs)
	cfg, o2 := buildConfig(o)
	system, err := sim.New(cfg, tr.Workload(), o2.Seed)
	if err != nil {
		return nil, err
	}
	defer system.Release()
	system.DebugChecks = o.DebugChecks
	run, err := system.RunContext(context.Background())
	if err != nil {
		return nil, err
	}
	name := tr.Name
	if name == "" {
		name = path
	}
	return summarize(name, o2, run), nil
}

// Comparison pairs a baseline run with a CGCT run of the same workload.
type Comparison struct {
	Baseline *Result
	CGCT     *Result
	// RuntimeReductionPct is the Figure 8 metric: percentage reduction in
	// run time from enabling CGCT.
	RuntimeReductionPct float64
	// BroadcastReductionPct is the reduction in broadcasts on the address
	// network.
	BroadcastReductionPct float64
}

// Compare runs the benchmark twice — baseline and CGCT with the given
// region size — under otherwise identical options.
func Compare(benchmark string, regionBytes uint64, o Options) (*Comparison, error) {
	o.RegionBytes = regionBytes
	o.CGCT = false
	base, err := Run(benchmark, o)
	if err != nil {
		return nil, err
	}
	o.CGCT = true
	cg, err := Run(benchmark, o)
	if err != nil {
		return nil, err
	}
	c := &Comparison{Baseline: base, CGCT: cg}
	c.RuntimeReductionPct = stats.SpeedupPct(base.Cycles, cg.Cycles)
	if base.Broadcasts > 0 {
		c.BroadcastReductionPct = (1 - float64(cg.Broadcasts)/float64(base.Broadcasts)) * 100
	}
	return c, nil
}

// String renders a short human-readable summary.
func (r *Result) String() string {
	mode := "baseline"
	switch {
	case r.Directory && r.CGCT:
		mode = fmt.Sprintf("directory+CGCT/%dB", r.RegionBytes)
	case r.Directory:
		mode = "directory"
	case r.CGCT:
		mode = fmt.Sprintf("CGCT/%dB", r.RegionBytes)
	case r.RegionScout:
		mode = fmt.Sprintf("RegionScout/%dB", r.RegionBytes)
	}
	classified := "broadcasts"
	if r.Directory {
		classified = "home transactions"
	}
	return fmt.Sprintf("%s [%s]: %d cycles, %d requests (%d broadcast, %d direct, %d local), %.1f%% of %s unnecessary",
		r.Benchmark, mode, r.Cycles, r.Requests, r.Broadcasts, r.Directs, r.Locals, 100*r.UnnecessaryFraction(), classified)
}
