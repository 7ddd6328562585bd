package cgct

// Compiled-trace equivalence: replaying a workload through the
// compiled-trace engine (internal/trace) must be invisible to the
// simulator — every stats.Run counter bit-identical to the live per-op
// generator path, for every registered benchmark. This is the contract
// that lets RunContext serve workloads from the shared trace cache by
// default without perturbing the golden fixtures.

import (
	"context"
	"reflect"
	"testing"

	"cgct/internal/sim"
	"cgct/internal/trace"
	"cgct/internal/workload"
)

// runPath simulates one configuration with the given workload and returns
// its flattened counters. It releases the machine once they are read, so
// the compiled-trace run starts on the live run's recycled tag storage.
func runPath(t *testing.T, o Options, w workload.Workload, seed uint64) map[string]uint64 {
	t.Helper()
	cfg, _ := ResolveConfig(o)
	system, err := sim.New(cfg, w, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer system.Release()
	return flatten(system.Run())
}

func TestCompiledTraceEquivalence(t *testing.T) {
	const (
		procs = 4
		ops   = 2_500
		seed  = 13
	)
	p := workload.Params{Processors: procs, OpsPerProc: ops, Seed: seed}
	variants := []struct {
		name string
		opts Options
	}{
		{"snoop", Options{}},
		{"snoop+cgct", Options{CGCT: true}},
		{"directory", Options{Directory: true}},
		{"dir+cgct", Options{CGCT: true, Directory: true}},
	}
	for _, bench := range workload.Names() {
		for _, v := range variants {
			o := v.opts
			o.Processors, o.OpsPerProc, o.Seed = procs, ops, seed
			live := runPath(t, o, workload.MustBuild(bench, p), seed)
			tr, err := trace.Compile(context.Background(), bench, p)
			if err != nil {
				t.Fatal(err)
			}
			compiled := runPath(t, o, tr.Workload(), seed)
			if !reflect.DeepEqual(live, compiled) {
				for k, lv := range live {
					if cv := compiled[k]; cv != lv {
						t.Errorf("%s %s: %s = %d compiled, %d live", bench, v.name, k, cv, lv)
					}
				}
				t.Fatalf("%s %s: compiled trace diverged from live generators", bench, v.name)
			}
		}
	}
}

// TestRunUsesCompiledPath: the public Run (which serves workloads from
// the shared trace cache) matches a hand-built live-generator simulation
// of the same golden configuration, and actually hits the trace cache on
// repeat.
func TestRunUsesCompiledPath(t *testing.T) {
	c := goldenCase{"tpcw-cgct", "tpc-w", Options{OpsPerProc: 30_000, Seed: 9, CGCT: true}}
	live := runStats(t, c)

	res, err := Run(c.Benchmark, c.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != live["Cycles"] || res.Instructions != live["Instructions"] {
		t.Fatalf("compiled-path Run: %d cycles / %d instrs, live path %d / %d",
			res.Cycles, res.Instructions, live["Cycles"], live["Instructions"])
	}

	hitsBefore := trace.SharedStats().Hits
	if _, err := Run(c.Benchmark, c.Opts); err != nil {
		t.Fatal(err)
	}
	if trace.SharedStats().Hits == hitsBefore {
		t.Fatal("second identical Run did not hit the shared trace cache")
	}
}

// fabricVariants is the 4-fabric sweep axis the equivalence suite pins:
// snoop, snoop+CGCT, full-map directory, directory+CGCT.
func fabricVariants() []Options {
	return []Options{
		{},
		{CGCT: true},
		{Directory: true},
		{CGCT: true, Directory: true},
	}
}

// TestRunFallsBackWhenTooLarge: a workload beyond the shared cache's op
// budget must still run (live generation), not fail.
func TestRunFallsBackWhenTooLarge(t *testing.T) {
	// 1024 procs × 64K ops > MaxSharedOps: buildWorkload must fall back.
	w, err := buildWorkload(context.Background(), "ocean", Options{Processors: 1024, OpsPerProc: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Sources) != 0 || len(w.Generators) != 1024 {
		t.Fatalf("fallback workload: %d sources, %d generators", len(w.Sources), len(w.Generators))
	}
}
