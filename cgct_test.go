package cgct_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"cgct"
	"cgct/internal/faultinject"
)

// TestRunContextCancel: a cancelled context aborts the simulation instead
// of running the workload to completion.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first event batch completes
	_, err := cgct.RunContext(ctx, "ocean", cgct.Options{OpsPerProc: 200_000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// A deadline landing mid-run must abort promptly too.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err = cgct.RunContext(ctx2, "ocean", cgct.Options{OpsPerProc: 2_000_000})
	if err == nil {
		t.Skip("machine fast enough to finish 2M ops inside the deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestBenchmarksList(t *testing.T) {
	paper := cgct.PaperBenchmarks()
	if len(paper) != 9 {
		t.Fatalf("got %d paper benchmarks, want 9", len(paper))
	}
	bs := cgct.Benchmarks()
	if len(bs) < 9 {
		t.Fatalf("got %d benchmarks, want the paper's 9 plus extras", len(bs))
	}
	if bs[0].Name != "ocean" || bs[8].Name != "tpc-h" {
		t.Errorf("order wrong: %v ... %v", bs[0].Name, bs[8].Name)
	}
	for i, name := range paper {
		if bs[i].Name != name {
			t.Errorf("benchmark %d = %q, want %q", i, bs[i].Name, name)
		}
	}
	cats := map[string]bool{}
	for _, b := range bs {
		if b.Category == "" || b.Comment == "" {
			t.Errorf("%s missing metadata", b.Name)
		}
		cats[b.Category] = true
	}
	for _, c := range []string{"Scientific", "Multiprogramming", "Web", "OLTP", "Decision Support", "Micro"} {
		if !cats[c] {
			t.Errorf("category %q missing", c)
		}
	}
}

func TestRunBaseline(t *testing.T) {
	res, err := cgct.Run("ocean", cgct.Options{OpsPerProc: 15_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.CGCT {
		t.Error("baseline flagged as CGCT")
	}
	if res.Cycles == 0 || res.Requests == 0 || res.Instructions == 0 {
		t.Errorf("empty result: %+v", res)
	}
	if res.Broadcasts != res.Requests {
		t.Errorf("baseline must broadcast everything: %d of %d", res.Broadcasts, res.Requests)
	}
	if res.Directs != 0 || res.Locals != 0 {
		t.Error("baseline produced direct/local requests")
	}
	if f := res.UnnecessaryFraction(); f <= 0 || f > 1 {
		t.Errorf("unnecessary fraction = %v", f)
	}
}

func TestRunCGCT(t *testing.T) {
	res, err := cgct.Run("tpc-w", cgct.Options{OpsPerProc: 15_000, CGCT: true, RegionBytes: 512, DebugChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CGCT || res.RegionBytes != 512 {
		t.Error("options not reflected")
	}
	if res.Directs == 0 {
		t.Error("CGCT produced no direct requests")
	}
	if res.AvoidedFraction() <= 0 {
		t.Error("nothing avoided")
	}
	if res.RCAHitRatio <= 0 {
		t.Error("RCA never hit")
	}
	if !strings.Contains(res.String(), "CGCT/512B") {
		t.Errorf("String() = %q", res.String())
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	if _, err := cgct.Run("nope", cgct.Options{}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	a := cgct.MustRun("barnes", cgct.Options{OpsPerProc: 10_000, Seed: 42})
	b := cgct.MustRun("barnes", cgct.Options{OpsPerProc: 10_000, Seed: 42})
	if a.Cycles != b.Cycles || a.Requests != b.Requests || a.Unnecessary != b.Unnecessary {
		t.Error("same options produced different results")
	}
}

func TestCompare(t *testing.T) {
	cmp, err := cgct.Compare("specint2000rate", 512, cgct.Options{OpsPerProc: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Baseline.CGCT || !cmp.CGCT.CGCT {
		t.Error("comparison modes wrong")
	}
	if cmp.RuntimeReductionPct <= 0 {
		t.Errorf("CGCT did not speed up specint: %.2f%%", cmp.RuntimeReductionPct)
	}
	if cmp.BroadcastReductionPct <= 0 {
		t.Errorf("CGCT did not cut broadcasts: %.2f%%", cmp.BroadcastReductionPct)
	}
}

func TestDefaultRegionSize(t *testing.T) {
	res := cgct.MustRun("ocean", cgct.Options{OpsPerProc: 5_000, CGCT: true})
	if res.RegionBytes != 512 {
		t.Errorf("default region = %d, want 512", res.RegionBytes)
	}
}

func TestHalfSizeRCA(t *testing.T) {
	res, err := cgct.Run("ocean", cgct.Options{OpsPerProc: 10_000, CGCT: true, RCASets: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if res.Directs == 0 {
		t.Error("half-size RCA produced no direct requests")
	}
}

func TestCategoryTotalsConsistent(t *testing.T) {
	res := cgct.MustRun("specweb99", cgct.Options{OpsPerProc: 20_000, CGCT: true})
	sumReq := res.RequestsByCat.Data + res.RequestsByCat.Writebacks +
		res.RequestsByCat.IFetches + res.RequestsByCat.DCBOps
	if sumReq != res.Requests {
		t.Errorf("category totals %d != requests %d", sumReq, res.Requests)
	}
	sumRouted := res.Broadcasts + res.Directs + res.Locals
	if sumRouted != res.Requests {
		t.Errorf("routed %d != requests %d", sumRouted, res.Requests)
	}
	if res.RequestsByCat.DCBOps == 0 {
		t.Error("specweb produced no DCB operations")
	}
}

func TestPerProcessorOption(t *testing.T) {
	res, err := cgct.Run("tpc-b", cgct.Options{OpsPerProc: 4_000, Processors: 8, CGCT: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Error("8-processor run empty")
	}
}

func TestScaledBackOption(t *testing.T) {
	full := cgct.MustRun("specweb99", cgct.Options{OpsPerProc: 15_000, CGCT: true})
	scaled := cgct.MustRun("specweb99", cgct.Options{OpsPerProc: 15_000, CGCT: true, ScaledBack: true})
	if scaled.AvoidedFraction() >= full.AvoidedFraction() {
		t.Errorf("scaled-back avoided %.3f, full %.3f", scaled.AvoidedFraction(), full.AvoidedFraction())
	}
	if scaled.AvoidedFraction() <= 0 {
		t.Error("scaled-back avoided nothing")
	}
}

func TestPrefetchRegionFilterOption(t *testing.T) {
	plain := cgct.MustRun("barnes", cgct.Options{OpsPerProc: 15_000, CGCT: true})
	filt := cgct.MustRun("barnes", cgct.Options{OpsPerProc: 15_000, CGCT: true, PrefetchRegionFilter: true})
	if filt.Requests >= plain.Requests {
		t.Errorf("filter did not trim prefetch requests (%d vs %d)", filt.Requests, plain.Requests)
	}
}

func TestRegionPrefetchOption(t *testing.T) {
	plain := cgct.MustRun("ocean", cgct.Options{OpsPerProc: 15_000, CGCT: true})
	probed := cgct.MustRun("ocean", cgct.Options{OpsPerProc: 15_000, CGCT: true, RegionPrefetch: true})
	if probed.RegionProbes == 0 {
		t.Fatal("no region probes issued")
	}
	if plain.RegionProbes != 0 {
		t.Error("probes issued while disabled")
	}
	if probed.Broadcasts >= plain.Broadcasts {
		t.Errorf("region prefetch did not reduce demand broadcasts (%d vs %d)",
			probed.Broadcasts, plain.Broadcasts)
	}
}

func TestRegionScoutOption(t *testing.T) {
	scout := cgct.MustRun("specint2000rate", cgct.Options{OpsPerProc: 15_000, RegionScout: true})
	if scout.NSRTInserts == 0 || scout.NSRTHits == 0 {
		t.Fatalf("RegionScout inactive: %+v", scout)
	}
	if scout.Directs == 0 {
		t.Error("RegionScout avoided nothing")
	}
	cg := cgct.MustRun("specint2000rate", cgct.Options{OpsPerProc: 15_000, CGCT: true})
	if scout.AvoidedFraction() >= cg.AvoidedFraction() {
		t.Errorf("RegionScout (%.3f) should be less effective than CGCT (%.3f)",
			scout.AvoidedFraction(), cg.AvoidedFraction())
	}
}

func TestDirectoryOption(t *testing.T) {
	dir := cgct.MustRun("barnes", cgct.Options{OpsPerProc: 10_000, Directory: true, DebugChecks: true})
	if !dir.Directory || dir.DirMessages == 0 {
		t.Fatalf("directory inactive: %+v", dir)
	}
	if dir.Broadcasts != 0 {
		t.Error("directory mode broadcast")
	}
	if dir.ThreeHops == 0 {
		t.Error("no three-hop transfers on barnes")
	}
}

// TestDirectoryProcessorLimit: the directory's sharer mask tracks at most
// 128 processors, so a larger directory machine — with or without CGCT —
// is a configuration error, not an index-out-of-range panic mid-run.
func TestDirectoryProcessorLimit(t *testing.T) {
	for _, withCGCT := range []bool{false, true} {
		o := cgct.Options{Processors: 129, Directory: true, CGCT: withCGCT, OpsPerProc: 300, Seed: 1}
		_, err := cgct.Run("tpc-b", o)
		if err == nil || !strings.Contains(err.Error(), "128") {
			t.Errorf("CGCT=%v, 129 processors: err = %v, want an error naming the 128-processor limit", withCGCT, err)
		}
		o.Processors = 128
		if _, err := cgct.Run("tpc-b", o); err != nil {
			t.Errorf("CGCT=%v, 128 processors: %v", withCGCT, err)
		}
	}
}

// TestSaveAndRunTrace: replaying a file written by CompileTrace returns
// exactly the Result of Run under the same options, on both fabrics, and
// a missing file fails instead of replaying.
func TestSaveAndRunTrace(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name, bench string
		opts        cgct.Options
	}{
		{"ocean-cgct", "ocean", cgct.Options{OpsPerProc: 5_000, Seed: 3, CGCT: true, DebugChecks: true}},
		{"tpcb-8p-snoop", "tpc-b", cgct.Options{Processors: 8, OpsPerProc: 4_000, Seed: 3, CGCT: true}},
		{"tpcb-8p-directory", "tpc-b", cgct.Options{Processors: 8, OpsPerProc: 4_000, Seed: 3, CGCT: true, Directory: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := dir + "/" + c.name + ".cgct"
			if err := cgct.CompileTrace(c.bench, path, c.opts); err != nil {
				t.Fatal(err)
			}
			replay, err := cgct.RunCompiledTrace(path, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			direct := cgct.MustRun(c.bench, c.opts)
			if !reflect.DeepEqual(replay, direct) {
				t.Fatalf("replay differs from the direct run:\nreplay %+v\ndirect %+v", replay, direct)
			}
			if direct.Directs == 0 {
				t.Fatal("run too small to compare: no direct requests")
			}
		})
	}
	if _, err := cgct.RunCompiledTrace(dir+"/missing.cgct", cgct.Options{}); err == nil {
		t.Error("missing trace file accepted")
	}
}

// TestSaveTraceErrors: CompileTrace reports an unknown benchmark and an
// unwritable path instead of writing a trace.
func TestSaveTraceErrors(t *testing.T) {
	dir := t.TempDir()
	if err := cgct.CompileTrace("nope", dir+"/x.cgct", cgct.Options{OpsPerProc: 10}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := cgct.CompileTrace("ocean", dir+"/no-such-dir/x.cgct", cgct.Options{OpsPerProc: 10}); err == nil {
		t.Error("unwritable path accepted")
	}
}

// TestRunErrorsReachCaller: a run that fails mid-simulation (here an
// injected event-loop fault) must surface its error from every entry
// point, trace replays included, instead of a partial result.
func TestRunErrorsReachCaller(t *testing.T) {
	dir := t.TempDir()
	o := cgct.Options{OpsPerProc: 2_000, Seed: 3}
	if err := cgct.CompileTrace("ocean", dir+"/t.cgct", o); err != nil {
		t.Fatal(err)
	}
	plan := faultinject.NewPlan(1)
	plan.Arm(faultinject.PointSimEventLoop, faultinject.Spec{Mode: faultinject.ModeError, Probability: 1})
	faultinject.Enable(plan)
	defer faultinject.Disable()
	for name, run := range map[string]func() (*cgct.Result, error){
		"Run":              func() (*cgct.Result, error) { return cgct.Run("ocean", o) },
		"RunCompiledTrace": func() (*cgct.Result, error) { return cgct.RunCompiledTrace(dir+"/t.cgct", o) },
	} {
		if res, err := run(); !errors.Is(err, faultinject.ErrInjected) {
			t.Errorf("%s: result %v, err %v; want the injected error", name, res, err)
		}
	}
}

func TestResultStringModes(t *testing.T) {
	dir := cgct.MustRun("micro-private", cgct.Options{OpsPerProc: 2_000, Directory: true})
	if !strings.Contains(dir.String(), "directory") {
		t.Errorf("String() = %q", dir.String())
	}
	base := cgct.MustRun("micro-private", cgct.Options{OpsPerProc: 2_000})
	if !strings.Contains(base.String(), "baseline") {
		t.Errorf("String() = %q", base.String())
	}
}
