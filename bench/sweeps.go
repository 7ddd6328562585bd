package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"cgct"
	"cgct/internal/experiments"
	"cgct/internal/trace"
)

// The paper's Figure 8 averages at 512 B regions, the reference the
// reproduction is judged against.
const (
	paperFig8Overall    = 8.8
	paperFig8Commercial = 10.4
)

// perturbCycles is the perturbation the experiments harness applies to
// every run; solo re-runs must use it too to reproduce its numbers.
const perturbCycles = 40

// sweepSpec describes one experiments sweep: which workloads it compiles,
// which machine variants it runs on each, and how to run and check it.
type sweepSpec struct {
	name     string
	procs    int
	ops      int
	benches  []string
	seeds    []uint64
	variants []cgct.Options
	// run calls the experiments harness and renders its rows at full
	// precision for the results digest.
	run func() (rows string)
	// verify re-runs a sample of the sweep through cgct.Run and compares.
	verify func(res *childResult) error
}

// runSweepFig8 is the researcher's main job: the Figure 8 sweep, nine
// benchmarks by {baseline, CGCT at 256/512/1024 B} by two seeds.
func runSweepFig8(ctx context.Context, c childConfig, tr *tracer, res *childResult) error {
	ops, benches := 60_000, cgct.PaperBenchmarks()
	if c.tiny {
		ops, benches = 2_000, []string{"ocean", "tpc-w"}
	}
	seeds := []uint64{c.seed, c.seed + 1}
	variants := []cgct.Options{{}}
	for _, rb := range experiments.RegionSizes {
		variants = append(variants, cgct.Options{CGCT: true, RegionBytes: rb})
	}
	p := experiments.Params{OpsPerProc: ops, Seeds: seeds, Benchmarks: benches}
	var rows []experiments.Figure8Row
	spec := sweepSpec{
		name: "experiments.Figure8", procs: 4, ops: ops,
		benches: benches, seeds: seeds, variants: variants,
		run: func() string {
			rows = experiments.Figure8(p)
			var b strings.Builder
			for _, r := range rows {
				for _, rb := range experiments.RegionSizes {
					s := r.Reduction[rb]
					fmt.Fprintf(&b, "%s %d %.17g %.17g\n", r.Benchmark, rb, s.Mean, s.CI95)
				}
			}
			return b.String()
		},
	}
	spec.verify = func(res *childResult) error {
		if len(rows) != len(benches) {
			return fmt.Errorf("figure 8: %d rows for %d benchmarks", len(rows), len(benches))
		}
		for _, r := range rows {
			for _, rb := range experiments.RegionSizes {
				if m := r.Reduction[rb].Mean; math.IsNaN(m) || math.Abs(m) >= 100 {
					return fmt.Errorf("figure 8: %s at %d B: reduction %v", r.Benchmark, rb, m)
				}
			}
		}
		// One benchmark, chosen by seed, re-run alone: its 512 B mean must
		// equal the sweep's bit for bit.
		pick := rows[c.seed%uint64(len(rows))]
		var red []float64
		for _, s := range seeds {
			o := cgct.Options{OpsPerProc: ops, Seed: s, PerturbCycles: perturbCycles}
			base, err := soloRun(res, pick.Benchmark, o)
			if err != nil {
				return err
			}
			o.CGCT, o.RegionBytes = true, 512
			cg, err := soloRun(res, pick.Benchmark, o)
			if err != nil {
				return err
			}
			red = append(red, 100*(float64(base.Cycles)-float64(cg.Cycles))/float64(base.Cycles))
		}
		if got, want := meanOf(red), pick.Reduction[512].Mean; got != want {
			return fmt.Errorf("figure 8: %s 512 B: solo runs give %.17g, sweep %.17g", pick.Benchmark, got, want)
		}
		return nil
	}
	if err := sweepChild(ctx, tr, res, spec); err != nil {
		return err
	}
	overall, commercial := experiments.Figure8Averages(rows, 512)
	res.set("experiments.fig8_overall_err_pp", math.Abs(overall-paperFig8Overall))
	res.set("experiments.fig8_commercial_err_pp", math.Abs(commercial-paperFig8Commercial))
	return nil
}

// runFabric16p is the five-fabric comparison on tpc-b at 16 processors:
// snooping, +CGCT, RegionScout, directory and directory+CGCT, two seeds.
func runFabric16p(ctx context.Context, c childConfig, tr *tracer, res *childResult) error {
	ops, procs := 30_000, 16
	if c.tiny {
		ops, procs = 1_000, 8
	}
	const bench = "tpc-b"
	seeds := []uint64{c.seed, c.seed + 1}
	variants := []cgct.Options{
		{},
		{CGCT: true, RegionBytes: 512},
		{RegionScout: true, RegionBytes: 512},
		{Directory: true},
		{Directory: true, CGCT: true, RegionBytes: 512},
	}
	p := experiments.Params{OpsPerProc: ops, Seeds: seeds, Benchmarks: []string{bench}}
	var rows []experiments.FabricRow
	spec := sweepSpec{
		name: "experiments.Fabric", procs: procs, ops: ops,
		benches: []string{bench}, seeds: seeds, variants: variants,
		run: func() string {
			rows = experiments.Fabric(p, []int{procs})
			var b strings.Builder
			for _, r := range rows {
				fmt.Fprintf(&b, "%s %d %.17g %.17g %.17g %.17g %d %d %d %d %d %d %d\n",
					r.Benchmark, r.Processors, r.CGCT, r.Scout, r.Directory, r.DirCGCT,
					r.CGCTC2C, r.DirThreeHops, r.BaseBroadcasts, r.CGCTBroadcasts,
					r.DirMessages, r.DirCGCTMessages, r.DirFastPaths)
			}
			return b.String()
		},
	}
	spec.verify = func(res *childResult) error {
		if len(rows) != 1 {
			return fmt.Errorf("fabric: %d rows, want 1", len(rows))
		}
		r := rows[0]
		// Re-run the snooping baseline and CGCT alone: the row's mean
		// reduction and broadcast counts must match bit for bit.
		var red []float64
		var baseB, cgB uint64
		for _, s := range seeds {
			o := cgct.Options{OpsPerProc: ops, Seed: s, Processors: procs, PerturbCycles: perturbCycles}
			base, err := soloRun(res, bench, o)
			if err != nil {
				return err
			}
			o.CGCT, o.RegionBytes = true, 512
			cg, err := soloRun(res, bench, o)
			if err != nil {
				return err
			}
			red = append(red, 100*(float64(base.Cycles)-float64(cg.Cycles))/float64(base.Cycles))
			baseB += base.Broadcasts
			cgB += cg.Broadcasts
		}
		n := uint64(len(seeds))
		if got := meanOf(red); got != r.CGCT || baseB/n != r.BaseBroadcasts || cgB/n != r.CGCTBroadcasts {
			return fmt.Errorf("fabric: solo runs give CGCT %.17g, broadcasts %d/%d; sweep %.17g, %d/%d",
				got, baseB/n, cgB/n, r.CGCT, r.BaseBroadcasts, r.CGCTBroadcasts)
		}
		return nil
	}
	return sweepChild(ctx, tr, res, spec)
}

// soloRun is one verification run; it counts as an attempted operation.
func soloRun(res *childResult, bench string, o cgct.Options) (*cgct.Result, error) {
	res.Attempted++
	r, err := cgct.Run(bench, o)
	if err != nil {
		return nil, fmt.Errorf("verification run %s: %w", bench, err)
	}
	return r, nil
}

func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sweepChild runs one sweep workload. Set-up compiles every workload of
// the sweep into the shared compiled-trace cache; the timed phase is the
// experiments call itself. A traced run then replays the run list alone,
// one run at a time under cgct.WithSpanRecorder, for the per-phase split.
func sweepChild(ctx context.Context, tr *tracer, res *childResult, s sweepSpec) error {
	setupStart := time.Now()
	var ops, compileNs int64
	for _, b := range s.benches {
		for _, seed := range s.seeds {
			t0 := time.Now()
			t, err := trace.Get(ctx, trace.Key{Benchmark: b, Processors: s.procs, OpsPerProc: s.ops, Seed: seed})
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("compiling %s seed %d: %w", b, seed, err)
			}
			tr.add(span{Trace: 1, Layer: "trace", Name: "trace.Get " + b, Start: t0, End: t1})
			ops += t.Ops()
			compileNs += t1.Sub(t0).Nanoseconds()
		}
	}
	res.SetupS = time.Since(setupStart).Seconds()
	res.set("trace.compile_ns_per_op", float64(compileNs)/float64(ops))

	before := readCounters()
	t0 := time.Now()
	rows := s.run()
	t1 := time.Now()
	after := readCounters()
	tr.add(span{Trace: 2, Layer: "experiments", Name: s.name, Start: t0, End: t1})
	wall := t1.Sub(t0)
	res.MeasuredS = wall.Seconds()
	res.Work = float64(ops) * float64(len(s.variants))
	runs := len(s.benches) * len(s.seeds) * len(s.variants)
	res.Attempted += runs
	sum := sha256.Sum256([]byte(rows))
	res.Digest = hex.EncodeToString(sum[:])
	if err := s.verify(res); err != nil {
		res.fail(err)
	}

	res.set("experiments.cpu_per_wall", float64(after.cpu-before.cpu)/float64(wall))
	res.set("sim.events", float64(after.events-before.events))
	res.set("sim.broadcasts", float64(after.bcast-before.bcast))
	res.set("sim.directs", float64(after.direct-before.direct))
	res.set("sim.locals", float64(after.local-before.local))
	res.set("sim.dir_messages", float64(after.dirMsg-before.dirMsg))
	res.set("trace.compilations", float64(after.trace.Compilations-before.trace.Compilations))
	hits := float64(after.trace.Hits - before.trace.Hits)
	misses := float64(after.trace.Misses - before.trace.Misses)
	res.ratio("trace.cache_hit_ratio", hits, hits+misses, "hits/lookups")
	res.set("trace.resident_mb", float64(after.trace.Bytes)/(1<<20))
	res.setRuntime(before, after)

	if tr != nil {
		replaySolo(ctx, tr, res, s, wall)
	}
	return nil
}

// replaySolo runs the sweep's run list again, one run at a time, recording
// each run's trace-compile, simulate and aggregate phases. Σ solo run time
// against the sweep's wall clock × GOMAXPROCS is the sweep's parallel
// efficiency.
func replaySolo(ctx context.Context, tr *tracer, res *childResult, s sweepSpec, sweepWall time.Duration) {
	phaseLayer := map[string]string{
		cgct.PhaseTraceCompile: "trace",
		cgct.PhaseSimulate:     "sim",
		cgct.PhaseAggregate:    "cgct",
	}
	var total time.Duration
	phase := map[string]time.Duration{}
	runs := 0
	eventsBefore := readCounters().events
	root := tr.newID()
	rootStart := time.Now()
	for _, b := range s.benches {
		for _, seed := range s.seeds {
			for _, v := range s.variants {
				o := v
				o.OpsPerProc, o.Seed, o.Processors, o.PerturbCycles = s.ops, seed, s.procs, perturbCycles
				id := tr.newID()
				var spans []cgct.Span
				rctx := cgct.WithSpanRecorder(ctx, func(sp cgct.Span) { spans = append(spans, sp) })
				t0 := time.Now()
				res.Attempted++
				if _, err := cgct.RunContext(rctx, b, o); err != nil {
					res.fail(fmt.Errorf("solo replay %s: %w", b, err))
					continue
				}
				t1 := time.Now()
				total += t1.Sub(t0)
				runs++
				tr.add(span{ID: id, Parent: root, Trace: 3, Layer: "cgct", Name: "cgct.RunContext " + b, Start: t0, End: t1})
				for _, sp := range spans {
					phase[sp.Name] += sp.Duration()
					tr.add(span{Parent: id, Trace: 3, Layer: phaseLayer[sp.Name], Name: sp.Name, Start: sp.Start, End: sp.End})
				}
			}
		}
	}
	tr.add(span{ID: root, Trace: 3, Layer: "bench", Name: "solo replay", Start: rootStart, End: time.Now()})
	if runs == 0 {
		return
	}
	events := readCounters().events - eventsBefore
	res.set("cgct.trace_compile_ms", ms(phase[cgct.PhaseTraceCompile])/float64(runs))
	res.set("cgct.simulate_ms", ms(phase[cgct.PhaseSimulate])/float64(runs))
	res.set("cgct.aggregate_ms", ms(phase[cgct.PhaseAggregate])/float64(runs))
	if events > 0 {
		res.set("sim.host_ns_per_event", float64(phase[cgct.PhaseSimulate].Nanoseconds())/float64(events))
	}
	res.ratio("experiments.parallel_efficiency", total.Seconds(),
		sweepWall.Seconds()*float64(runtime.GOMAXPROCS(0)), "solo-run seconds/(sweep seconds×GOMAXPROCS)")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
