package experiments

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cgct"
	"cgct/internal/trace"
)

// quickParams keeps experiment tests fast: two benchmarks, tiny traces.
func quickParams() Params {
	return Params{
		OpsPerProc: 8_000,
		Seeds:      []uint64{1, 2},
		Benchmarks: []string{"ocean", "tpc-h"},
	}
}

func TestTable1Shape(t *testing.T) {
	rows := Table1()
	if len(rows) != 7 {
		t.Fatalf("Table 1 rows = %d", len(rows))
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2()
	if len(rows) != 9 {
		t.Fatalf("Table 2 rows = %d", len(rows))
	}
	// Headline numbers: 16K entries, 5.9% cache overhead.
	last := rows[len(rows)-1]
	if last.Entries != 16384 || math.Abs(100*last.CacheSpaceOverhead-5.9) > 0.05 {
		t.Errorf("16K-entry overhead = %.2f%%, want 5.9%%", 100*last.CacheSpaceOverhead)
	}
}

// TestFigure6Golden pins the latency model to the paper's Figure 6 totals
// within one system cycle.
func TestFigure6Golden(t *testing.T) {
	for _, r := range Figure6() {
		if r.PaperSys == 0 {
			continue
		}
		if math.Abs(r.SysCycles-r.PaperSys) > 1.2 {
			t.Errorf("%s: model %.1f vs paper %.0f system cycles", r.Scenario, r.SysCycles, r.PaperSys)
		}
	}
	// Direct access must beat snooping for every distance pair.
	rows := Figure6()
	for i := 0; i+1 < len(rows); i += 2 {
		if rows[i+1].SysCycles >= rows[i].SysCycles {
			t.Errorf("direct (%s) not faster than snoop (%s)", rows[i+1].Scenario, rows[i].Scenario)
		}
	}
}

func TestFigure2(t *testing.T) {
	rows := Figure2(quickParams())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		sum := r.DataPct + r.WBPct + r.IFetchPct + r.DCBPct
		if math.Abs(sum-r.TotalPct) > 0.01 {
			t.Errorf("%s: categories sum to %.2f, total %.2f", r.Benchmark, sum, r.TotalPct)
		}
		if r.TotalPct <= 0 || r.TotalPct > 100 {
			t.Errorf("%s: total %.2f out of range", r.Benchmark, r.TotalPct)
		}
	}
	// Ocean (mostly private) has far more opportunity than TPC-H (merge
	// phase cache-to-cache) — the paper's key per-benchmark contrast.
	if rows[0].TotalPct <= rows[1].TotalPct {
		t.Errorf("ocean (%.1f%%) should exceed tpc-h (%.1f%%)", rows[0].TotalPct, rows[1].TotalPct)
	}
	if avg := Figure2Average(rows); avg <= 0 {
		t.Errorf("average = %v", avg)
	}
}

func TestFigure7(t *testing.T) {
	rows := Figure7(quickParams())
	for _, r := range rows {
		for _, rb := range RegionSizes {
			if r.Avoided[rb] < 0 || r.Avoided[rb] > 100 {
				t.Errorf("%s/%dB avoided = %.1f", r.Benchmark, rb, r.Avoided[rb])
			}
			if r.AvoidedWB[rb] > r.Avoided[rb] {
				t.Errorf("%s/%dB write-back share exceeds total", r.Benchmark, rb)
			}
		}
	}
}

func TestFigure8And9And10(t *testing.T) {
	p := quickParams()
	rows8 := Figure8(p)
	for _, r := range rows8 {
		for _, rb := range RegionSizes {
			if r.Reduction[rb].Mean < -5 {
				t.Errorf("%s/%dB: CGCT slowdown %.1f%%", r.Benchmark, rb, r.Reduction[rb].Mean)
			}
		}
	}
	overall, commercial := Figure8Averages(rows8, 512)
	if overall == 0 && commercial == 0 {
		t.Error("averages empty")
	}

	rows9 := Figure9(p)
	for _, r := range rows9 {
		if math.Abs(r.Full.Mean-r.Half.Mean) > 10 {
			t.Errorf("%s: half-size RCA diverged by %.1f points", r.Benchmark, r.Full.Mean-r.Half.Mean)
		}
	}

	rows10 := Figure10(p)
	for _, r := range rows10 {
		if r.CGCTAvg >= r.BaseAvg {
			t.Errorf("%s: CGCT average traffic not reduced (%.0f vs %.0f)", r.Benchmark, r.CGCTAvg, r.BaseAvg)
		}
		if r.AvgRatio <= 0 || r.AvgRatio >= 1 {
			t.Errorf("%s: traffic ratio %.2f", r.Benchmark, r.AvgRatio)
		}
	}
}

func TestEvictions(t *testing.T) {
	rows := Evictions(quickParams())
	for _, r := range rows {
		if r.EmptyPct < 0 || r.EmptyPct > 100 {
			t.Errorf("%s: empty evictions %.1f%%", r.Benchmark, r.EmptyPct)
		}
		if r.RCAHitRatio <= 0 {
			t.Errorf("%s: RCA never hit", r.Benchmark)
		}
	}
}

func TestRender(t *testing.T) {
	out := Render([]string{"a", "long-header"}, [][]string{{"xxxxx", "1"}, {"y", "2"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines", len(lines))
	}
	if !strings.Contains(lines[0], "long-header") || !strings.Contains(lines[2], "xxxxx") {
		t.Errorf("render output:\n%s", out)
	}
	// All rows aligned to the same width.
	if len(lines[1]) < len("a")+2+len("long-header") {
		t.Error("separator too short")
	}
}

func TestRunnerCaches(t *testing.T) {
	p := Params{OpsPerProc: 3_000, Seeds: []uint64{1}, Benchmarks: []string{"ocean"}}.withDefaults()
	r := newRunner(p)
	k := runKey{bench: "ocean", seed: 1}
	a := r.get(k)
	b := r.get(k)
	if a != b {
		t.Error("runner did not cache")
	}
}

// TestRunnerSingleflight pins the duplicate-work fix: N concurrent get()
// calls on one key must run exactly one simulation, not N.
func TestRunnerSingleflight(t *testing.T) {
	p := Params{OpsPerProc: 3_000, Seeds: []uint64{1}, Benchmarks: []string{"ocean"}}.withDefaults()
	r := newRunner(p)
	var execs atomic.Int32
	release := make(chan struct{})
	r.run = func(k runKey) (*cgct.Result, error) {
		execs.Add(1)
		<-release // hold every would-be duplicate in the race window
		return &cgct.Result{Benchmark: k.bench, Seed: k.seed}, nil
	}
	const n = 16
	k := runKey{bench: "ocean", seed: 1}
	results := make([]*cgct.Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = r.get(k)
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d concurrent get() calls ran the simulation %d times, want exactly 1", n, got)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent callers got different result pointers")
		}
	}
}

func TestRunByName(t *testing.T) {
	rows, err := RunByName("table1", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if rows == nil {
		t.Fatal("nil rows")
	}
	if _, err := RunByName("nope", Params{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(Names()) != 13 || !Known("fig8") {
		t.Fatalf("catalog = %v", Names())
	}
}

func TestParamsCanonical(t *testing.T) {
	a := Params{Benchmarks: []string{"tpc-h", "ocean"}, Parallel: 7}.Canonical()
	b := Params{Benchmarks: []string{"ocean", "tpc-h"}, Parallel: 2}.Canonical()
	if a.Parallel != 0 || b.Parallel != 0 {
		t.Error("Parallel must not survive canonicalisation")
	}
	if len(a.Benchmarks) != 2 || a.Benchmarks[0] != b.Benchmarks[0] || a.Benchmarks[1] != b.Benchmarks[1] {
		t.Errorf("benchmark order not canonical: %v vs %v", a.Benchmarks, b.Benchmarks)
	}
	if a.OpsPerProc == 0 || len(a.Seeds) == 0 {
		t.Error("defaults not applied")
	}
}

func TestCI95(t *testing.T) {
	if ci95([]float64{5}) != 0 {
		t.Error("single sample CI should be 0")
	}
	ci := ci95([]float64{4, 6})
	if math.Abs(ci-12.706) > 0.01 {
		t.Errorf("two-sample CI = %v", ci)
	}
}

func TestAblation(t *testing.T) {
	rows := Ablation(Params{
		OpsPerProc: 6_000,
		Seeds:      []uint64{1},
		Benchmarks: []string{"tpc-w"},
	})
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Scaled > r.Full+1 {
		t.Errorf("scaled-back (%.1f%%) should not beat the full protocol (%.1f%%)", r.Scaled, r.Full)
	}
	if r.ScaledAvoided >= r.FullAvoided {
		t.Errorf("scaled-back avoided more (%.1f%% vs %.1f%%)", r.ScaledAvoided, r.FullAvoided)
	}
}

func TestFabric(t *testing.T) {
	rows := Fabric(Params{
		OpsPerProc: 5_000,
		Seeds:      []uint64{1},
		Benchmarks: []string{"barnes"},
	}, []int{4})
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.DirThreeHops == 0 {
		t.Error("directory produced no three-hop transfers on barnes")
	}
	if r.DirMessages == 0 || r.BaseBroadcasts == 0 {
		t.Error("message counts empty")
	}
	if r.CGCTBroadcasts >= r.BaseBroadcasts {
		t.Error("CGCT did not cut broadcasts")
	}
}

// TestFabricHonoursParallel: Fabric submits its whole grid as one pool
// of p.Parallel workers; the rows must not depend on that width, and must
// equal rows rebuilt from sequential cgct.Run calls.
func TestFabricHonoursParallel(t *testing.T) {
	p := Params{OpsPerProc: 2_000, Seeds: []uint64{1, 2}, Benchmarks: []string{"barnes", "tpc-b"}}
	procs := []int{4, 8}
	p.Parallel = 1
	one := Fabric(p, procs)
	p.Parallel = 4
	four := Fabric(p, procs)
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("rows differ between Parallel 1 and 4:\n%+v\n%+v", one, four)
	}
	var want []FabricRow
	for _, n := range procs {
		for _, b := range p.withDefaults().sortedBenchmarks() {
			var runs [][5]*cgct.Result
			for _, s := range p.Seeds {
				var rs [5]*cgct.Result
				for i, o := range fabricVariants(p.OpsPerProc, n, s) {
					r, err := cgct.Run(b, o)
					if err != nil {
						t.Fatal(err)
					}
					rs[i] = r
				}
				runs = append(runs, rs)
			}
			want = append(want, fabricRow(b, n, runs))
		}
	}
	if !reflect.DeepEqual(one, want) {
		t.Fatalf("pooled rows differ from sequential runs:\n%+v\n%+v", one, want)
	}
}

func TestEnergy(t *testing.T) {
	rows := Energy(Params{
		OpsPerProc: 6_000,
		Seeds:      []uint64{1},
		Benchmarks: []string{"tpc-w"},
	})
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.SavingsPct <= 0 {
		t.Errorf("CGCT should save energy: %.2f%%", r.SavingsPct)
	}
	if r.NetworkSaved <= 0 || r.TagProbesSaved <= 0 {
		t.Errorf("component savings missing: %+v", r)
	}
	if r.RegionOverhead <= 0 {
		t.Error("the RCA's own lookups must cost something")
	}
	if r.OverheadShare <= 0 || r.OverheadShare >= 1 {
		t.Errorf("overhead share = %.2f, want in (0,1)", r.OverheadShare)
	}
}

func TestSectoring(t *testing.T) {
	rows := Sectoring(Params{
		OpsPerProc: 6_000,
		Seeds:      []uint64{1},
		Benchmarks: []string{"specweb99"},
	})
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Sector512 <= r.Baseline {
		t.Errorf("sectoring should raise the miss ratio (%.4f vs %.4f)", r.Sector512, r.Baseline)
	}
	if r.Sector1K < r.Sector512 {
		t.Errorf("coarser sectors should fragment more (%.4f vs %.4f)", r.Sector1K, r.Sector512)
	}
	if r.CGCTPct > r.Sector512Pct {
		t.Error("CGCT should perturb the miss ratio less than sectoring")
	}
}

// TestSweepCompilesEachTraceOnce pins the compiled-trace engine's whole
// point: a figures-style sweep over machine variants (region sizes, CGCT
// on/off) compiles each distinct (benchmark, seed) workload exactly once
// — the machine configuration is not part of the trace identity.
func TestSweepCompilesEachTraceOnce(t *testing.T) {
	// Distinctive ops/seeds so no other test has already cached these.
	p := Params{OpsPerProc: 2_002, Seeds: []uint64{771, 772}, Benchmarks: []string{"ocean", "tpc-b"}}.withDefaults()
	r := newRunner(p)
	before := trace.SharedStats().Compilations
	runs := 0
	for _, bench := range p.Benchmarks {
		for _, seed := range p.Seeds {
			for _, region := range []uint64{256, 512, 1024} {
				for _, on := range []bool{false, true} {
					r.get(runKey{bench: bench, cgctOn: on, region: region, seed: seed})
					runs++
				}
			}
		}
	}
	distinct := len(p.Benchmarks) * len(p.Seeds)
	if got := trace.SharedStats().Compilations - before; got != uint64(distinct) {
		t.Fatalf("%d sweep runs compiled %d traces, want exactly %d (one per distinct workload)", runs, got, distinct)
	}
}
