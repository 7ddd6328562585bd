// Command cgctbench measures simulation-core throughput and allocation
// behaviour per configuration and writes the results as machine-readable
// JSON, so performance regressions show up as numbers in CI artifacts
// rather than anecdotes.
//
// Usage:
//
//	cgctbench                      # all configs, BENCH_simcore.json
//	cgctbench -config cgct-ocean   # one config
//	cgctbench -out results.json -benchtime 5
//	cgctbench -baseline BENCH_simcore.json   # print deltas vs a committed run
//
// Each config reports ns/op (one op = one full simulation run),
// trace-ops/s (memory operations simulated per wall-clock second),
// allocs/op and bytes/op, plus the trace-generation cost paid once per
// workload (trace_gen_ns) and how many of the timed iterations were
// served from the shared compiled-trace cache (trace_cache_hits). The
// sweep4-* configs measure a ≥4-variant sweep through the cgct.RunAll
// pool at one worker and at the host's parallelism, recording the worker
// count (parallelism) and per-iteration wall vs CPU time (wall_ns,
// cpu_ns) so the scaling curve is visible in the artifact. The JSON
// schema is the benchResult struct below.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"cgct"
	"cgct/internal/trace"
	"cgct/internal/workload"
)

// benchConfig is one measured configuration, mirroring the BenchmarkSim*
// benchmarks in the repository's bench_test.go. A config with Variants
// set is a multi-variant sweep over one workload, executed through the
// cgct.RunAll pool on Parallelism workers; Parallelism 1 runs the
// variants one after another, the sweep's "before" baseline.
type benchConfig struct {
	Name      string
	Benchmark string
	Opts      cgct.Options

	Variants    []cgct.Options
	Parallelism int
}

// opsPerProc matches bench_test.go's benchmarkRun so cgctbench numbers are
// comparable with `go test -bench BenchmarkSim`.
const opsPerProc = 60_000

// sweepVariants is the ≥4-variant sweep axis the sweep configs measure:
// baseline plus CGCT at three region sizes, all replaying the same
// workload (the paper's Figure 8 sweep shape).
func sweepVariants() []cgct.Options {
	return []cgct.Options{
		{},
		{CGCT: true, RegionBytes: 256},
		{CGCT: true, RegionBytes: 512},
		{CGCT: true, RegionBytes: 1024},
	}
}

func configs() []benchConfig {
	par := runtime.GOMAXPROCS(0)
	if par < 4 {
		par = 4 // the scaling point of record; extra goroutines timeshare on smaller hosts
	}
	return []benchConfig{
		{Name: "baseline-ocean", Benchmark: "ocean"},
		{Name: "cgct-ocean", Benchmark: "ocean", Opts: cgct.Options{CGCT: true}},
		{Name: "baseline-tpcw", Benchmark: "tpc-w"},
		{Name: "cgct-tpcw", Benchmark: "tpc-w", Opts: cgct.Options{CGCT: true}},
		{Name: "cgct-tpch", Benchmark: "tpc-h", Opts: cgct.Options{CGCT: true}},
		{Name: "cgct-16proc-tpcb", Benchmark: "tpc-b", Opts: cgct.Options{Processors: 16, CGCT: true}},
		{Name: "sweep4-ocean-seq", Benchmark: "ocean", Variants: sweepVariants(), Parallelism: 1},
		{Name: "sweep4-ocean-pool", Benchmark: "ocean", Variants: sweepVariants(), Parallelism: par},
	}
}

// benchResult is the JSON record for one configuration.
type benchResult struct {
	Name        string  `json:"name"`
	Benchmark   string  `json:"benchmark"`
	CGCT        bool    `json:"cgct"`
	Processors  int     `json:"processors"`
	Runs        int     `json:"runs"`      // benchmark iterations measured
	NsPerOp     int64   `json:"ns_per_op"` // one op = one full simulation
	TraceOpsSec float64 `json:"trace_ops_per_sec"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	SimCycles   uint64  `json:"sim_cycles"` // deterministic per config
	// TraceGenNs is the one-time cost of compiling this config's workload
	// into the shared columnar trace (paid once per distinct workload, not
	// per run); the simulation timings below exclude it.
	TraceGenNs int64 `json:"trace_gen_ns"`
	// TraceCacheHits counts timed iterations whose workload came out of
	// the shared compiled-trace cache instead of being regenerated.
	TraceCacheHits uint64 `json:"trace_cache_hits"`
	// Parallelism records the RunAll worker count the config ran at (1 =
	// strictly sequential); Variants is how many machine variants one
	// iteration simulates.
	Parallelism int `json:"parallelism"`
	Variants    int `json:"variants"`
	// WallNs and CPUNs are the per-iteration wall-clock and process CPU
	// time (getrusage): on a parallel sweep CPUNs/WallNs approaches the
	// worker count, on a single run they coincide.
	WallNs int64 `json:"wall_ns"`
	CPUNs  int64 `json:"cpu_ns"`
}

type benchFile struct {
	Generated  string        `json:"generated"`
	GoVersion  string        `json:"go_version"`
	GOARCH     string        `json:"goarch"`
	NumCPU     int           `json:"num_cpu"`
	GoMaxProcs int           `json:"go_max_procs"`
	OpsPerProc int           `json:"ops_per_proc"`
	Results    []benchResult `json:"results"`
}

// run executes one simulation of config c with the given seed.
func run(c benchConfig, seed uint64) (*cgct.Result, error) {
	opts := c.Opts
	opts.OpsPerProc = opsPerProc
	opts.Seed = seed
	return cgct.Run(c.Benchmark, opts)
}

// measure times iters simulations of one configuration, counting
// allocations via MemStats deltas — the simulation is single-threaded and
// nothing else runs, so the deltas are exact, and a fixed iteration count
// (unlike testing.Benchmark's auto-scaling) keeps runs comparable.
//
// Trace generation is measured separately: one uncached Compile is timed
// for TraceGenNs, and every timed iteration's workload is prewarmed into
// the shared trace cache first, so NsPerOp / TraceOpsSec isolate the
// simulation core.
func measure(c benchConfig, iters int) (benchResult, error) {
	procs := c.Opts.Processors
	if procs == 0 {
		procs = 4
	}

	// Time one direct (cache-bypassing) compilation of the workload.
	genStart := time.Now()
	if _, err := trace.Compile(context.Background(), c.Benchmark, workload.Params{
		Processors: procs, OpsPerProc: opsPerProc, Seed: 1,
	}); err != nil {
		return benchResult{}, err
	}
	genNs := time.Since(genStart).Nanoseconds()

	// Warm-up: first run pays one-time costs (workload construction paths,
	// heap growth) that steady-state numbers should not include.
	res, err := run(c, 1)
	if err != nil {
		return benchResult{}, err
	}
	cycles := res.Cycles

	// Prewarm the trace cache for every seed the timed loop will use, so
	// the loop measures simulation, not generation.
	for i := 0; i < iters; i++ {
		if _, err := trace.Get(context.Background(), trace.Key{
			Benchmark: c.Benchmark, Processors: procs,
			OpsPerProc: opsPerProc, Seed: uint64(i + 1),
		}); err != nil {
			return benchResult{}, err
		}
	}

	hitsBefore := trace.SharedStats().Hits
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpuStart := cpuTime()
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := run(c, uint64(i+1)); err != nil {
			return benchResult{}, err
		}
	}
	elapsed := time.Since(start)
	cpu := cpuTime() - cpuStart
	runtime.ReadMemStats(&after)
	hits := trace.SharedStats().Hits - hitsBefore

	var opsPerSec float64
	if elapsed > 0 {
		opsPerSec = float64(procs*opsPerProc*iters) / elapsed.Seconds()
	}
	return benchResult{
		Name:           c.Name,
		Benchmark:      c.Benchmark,
		CGCT:           c.Opts.CGCT,
		Processors:     procs,
		Runs:           iters,
		NsPerOp:        elapsed.Nanoseconds() / int64(iters),
		TraceOpsSec:    opsPerSec,
		AllocsPerOp:    int64((after.Mallocs - before.Mallocs) / uint64(iters)),
		BytesPerOp:     int64((after.TotalAlloc - before.TotalAlloc) / uint64(iters)),
		SimCycles:      cycles,
		TraceGenNs:     genNs,
		TraceCacheHits: hits,
		Parallelism:    1,
		Variants:       1,
		WallNs:         elapsed.Nanoseconds() / int64(iters),
		CPUNs:          cpu.Nanoseconds() / int64(iters),
	}, nil
}

// runSweep executes one full sweep over c.Variants through the
// cgct.RunAll pool on c.Parallelism workers. Returns the summed simulated
// cycles (deterministic per config, so drift between worker counts would
// be visible).
func runSweep(c benchConfig, seed uint64) (uint64, error) {
	reqs := make([]cgct.RunRequest, len(c.Variants))
	for i, o := range c.Variants {
		o.OpsPerProc, o.Seed = opsPerProc, seed
		reqs[i] = cgct.RunRequest{Benchmark: c.Benchmark, Options: o}
	}
	results, err := cgct.RunAll(context.Background(), reqs, c.Parallelism)
	if err != nil {
		return 0, err
	}
	var cycles uint64
	for _, r := range results {
		cycles += r.Cycles
	}
	return cycles, nil
}

// measureSweep times iters multi-variant sweeps. Aggregate trace-ops/s
// counts every variant's replayed ops against the sweep's wall clock —
// the number the pool moves by running variants in parallel.
func measureSweep(c benchConfig, iters int) (benchResult, error) {
	procs := c.Opts.Processors
	if procs == 0 {
		procs = 4
	}
	genStart := time.Now()
	if _, err := trace.Compile(context.Background(), c.Benchmark, workload.Params{
		Processors: procs, OpsPerProc: opsPerProc, Seed: 1,
	}); err != nil {
		return benchResult{}, err
	}
	genNs := time.Since(genStart).Nanoseconds()

	// Warm-up sweep (one-time costs) + trace-cache prewarm for every seed.
	cycles, err := runSweep(c, 1)
	if err != nil {
		return benchResult{}, err
	}
	for i := 0; i < iters; i++ {
		if _, err := trace.Get(context.Background(), trace.Key{
			Benchmark: c.Benchmark, Processors: procs,
			OpsPerProc: opsPerProc, Seed: uint64(i + 1),
		}); err != nil {
			return benchResult{}, err
		}
	}

	hitsBefore := trace.SharedStats().Hits
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpuStart := cpuTime()
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := runSweep(c, uint64(i+1)); err != nil {
			return benchResult{}, err
		}
	}
	elapsed := time.Since(start)
	cpu := cpuTime() - cpuStart
	runtime.ReadMemStats(&after)
	hits := trace.SharedStats().Hits - hitsBefore

	var opsPerSec float64
	if elapsed > 0 {
		opsPerSec = float64(procs*opsPerProc*len(c.Variants)*iters) / elapsed.Seconds()
	}
	return benchResult{
		Name:           c.Name,
		Benchmark:      c.Benchmark,
		Processors:     procs,
		Runs:           iters,
		NsPerOp:        elapsed.Nanoseconds() / int64(iters),
		TraceOpsSec:    opsPerSec,
		AllocsPerOp:    int64((after.Mallocs - before.Mallocs) / uint64(iters)),
		BytesPerOp:     int64((after.TotalAlloc - before.TotalAlloc) / uint64(iters)),
		SimCycles:      cycles,
		TraceGenNs:     genNs,
		TraceCacheHits: hits,
		Parallelism:    c.Parallelism,
		Variants:       len(c.Variants),
		WallNs:         elapsed.Nanoseconds() / int64(iters),
		CPUNs:          cpu.Nanoseconds() / int64(iters),
	}, nil
}

// compare prints per-config deltas against a previously written bench
// file. It is informational only — machine noise makes small swings
// meaningless — so it never fails the run. A baseline captured at a
// different go_max_procs ran with a different parallel budget, so its
// wall-clock-derived columns are not comparable: only allocation deltas
// are printed then.
func compare(baselinePath string, results []benchResult, goMaxProcs int) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cgctbench: baseline unavailable: %v\n", err)
		return
	}
	base, err := loadBaseline(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cgctbench: baseline unreadable: %v\n", err)
		return
	}
	wallClock := base.GoMaxProcs == 0 || base.GoMaxProcs == goMaxProcs
	fmt.Printf("\nvs %s:\n", baselinePath)
	if !wallClock {
		fmt.Printf("  (baseline ran at go_max_procs=%d, this host has %d: wall-clock deltas skipped)\n",
			base.GoMaxProcs, goMaxProcs)
	}
	for _, line := range compareLines(results, base.Results, wallClock) {
		fmt.Println(line)
	}
}

// loadBaseline parses a bench JSON schema-tolerantly: columns the
// baseline has that this binary doesn't know are ignored, and columns
// this binary expects that the baseline predates decode to zeros (which
// compareLines already renders as "(no baseline)" rather than NaN%). A
// baseline written by an older or newer cgctbench therefore never breaks
// the bench-compare job — only actually malformed JSON errors.
func loadBaseline(data []byte) (benchFile, error) {
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		return benchFile{}, err
	}
	return base, nil
}

// compareLines renders one delta line per result against the baseline by
// config name. Pure (no I/O) so the formatting is unit-testable. A config
// missing from the baseline — or one whose baseline throughput is zero or
// otherwise yields a non-finite delta (a partial or zero-valued baseline
// file) — reports "(no baseline)"; the output never contains NaN% or Inf%.
// With wallClock false (the baseline's go_max_procs differs) only the
// allocation delta — a machine-shape-independent number — is printed.
func compareLines(results, baseline []benchResult, wallClock bool) []string {
	byName := map[string]benchResult{}
	for _, r := range baseline {
		byName[r.Name] = r
	}
	lines := make([]string, 0, len(results))
	for _, r := range results {
		b, ok := byName[r.Name]
		if !ok {
			lines = append(lines, fmt.Sprintf("  %-18s (no baseline)", r.Name))
			continue
		}
		if !wallClock {
			lines = append(lines, fmt.Sprintf("  %-18s allocs/op %+d", r.Name, r.AllocsPerOp-b.AllocsPerOp))
			continue
		}
		pct := 100 * (r.TraceOpsSec/b.TraceOpsSec - 1)
		if math.IsNaN(pct) || math.IsInf(pct, 0) {
			lines = append(lines, fmt.Sprintf("  %-18s (no baseline)", r.Name))
			continue
		}
		lines = append(lines, fmt.Sprintf("  %-18s trace-ops/s %+7.1f%%   allocs/op %+d",
			r.Name, pct, r.AllocsPerOp-b.AllocsPerOp))
	}
	return lines
}

func main() {
	var (
		out       = flag.String("out", "BENCH_simcore.json", "output JSON path (- for stdout)")
		config    = flag.String("config", "", "run only this config (default: all; see -list)")
		list      = flag.Bool("list", false, "list configs and exit")
		benchtime = flag.Int("benchtime", 3, "iterations per config")
		baseline  = flag.String("baseline", "", "bench JSON to print deltas against (informational, never fails)")
	)
	flag.Parse()

	if *list {
		for _, c := range configs() {
			fmt.Println(c.Name)
		}
		return
	}

	file := benchFile{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		OpsPerProc: opsPerProc,
	}
	for _, c := range configs() {
		if *config != "" && c.Name != *config {
			continue
		}
		var res benchResult
		var err error
		if len(c.Variants) > 0 {
			res, err = measureSweep(c, *benchtime)
		} else {
			res, err = measure(c, *benchtime)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "cgctbench %s: %v\n", c.Name, err)
			os.Exit(1)
		}
		fmt.Printf("%-20s %12.0f trace-ops/s  %8d allocs/op  %11d ns/op  (par %d, cpu/wall %.2f)\n",
			res.Name, res.TraceOpsSec, res.AllocsPerOp, res.NsPerOp,
			res.Parallelism, float64(res.CPUNs)/float64(res.WallNs))
		file.Results = append(file.Results, res)
	}
	if len(file.Results) == 0 {
		fmt.Fprintf(os.Stderr, "cgctbench: no config named %q (see -list)\n", *config)
		os.Exit(2)
	}

	if *baseline != "" {
		compare(*baseline, file.Results, file.GoMaxProcs)
	}

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
