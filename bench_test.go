// Benchmarks that regenerate the paper's tables and figures. Each
// Benchmark<TableN|FigureN> drives the corresponding experiment harness
// and reports the headline metric the paper quotes, so
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction run. The benchmark-sized parameters keep a
// full sweep to a few minutes; cmd/cgctexperiments runs the full-size
// version.
package cgct_test

import (
	"testing"

	"cgct"
	"cgct/internal/config"
	"cgct/internal/experiments"
)

// benchParams are reduced-cost parameters for the -bench harness.
func benchParams() experiments.Params {
	return experiments.Params{
		OpsPerProc: 60_000,
		Seeds:      []uint64{1, 2},
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if len(rows) != 7 {
			b.Fatal("Table 1 wrong")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2()
		overhead = rows[len(rows)-1].CacheSpaceOverhead
	}
	b.ReportMetric(100*overhead, "%cache-overhead-16K")
}

func BenchmarkFigure2(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure2(benchParams())
		avg = experiments.Figure2Average(rows)
	}
	b.ReportMetric(avg, "%unnecessary(paper:67)")
}

func BenchmarkFigure6(b *testing.B) {
	var direct float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure6()
		direct = rows[1].SysCycles
	}
	b.ReportMetric(direct, "syscycles-direct-own(paper:18)")
}

func BenchmarkFigure7(b *testing.B) {
	var captured float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure7(benchParams())
		var sum float64
		for _, r := range rows {
			sum += r.Captured[512]
		}
		captured = sum / float64(len(rows))
	}
	b.ReportMetric(captured, "%opportunity-captured@512B")
}

func BenchmarkFigure8(b *testing.B) {
	var overall, commercial float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure8(benchParams())
		overall, commercial = experiments.Figure8Averages(rows, 512)
	}
	b.ReportMetric(overall, "%runtime-reduction(paper:8.8)")
	b.ReportMetric(commercial, "%commercial(paper:10.4)")
}

func BenchmarkFigure9(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure9(benchParams())
		var sum float64
		for _, r := range rows {
			sum += r.Full.Mean - r.Half.Mean
		}
		delta = sum / float64(len(rows))
	}
	b.ReportMetric(delta, "%full-vs-half-delta(paper:~1)")
}

func BenchmarkFigure10(b *testing.B) {
	var avgRatio float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure10(benchParams())
		var sum float64
		for _, r := range rows {
			sum += r.AvgRatio
		}
		avgRatio = sum / float64(len(rows))
	}
	b.ReportMetric(avgRatio, "traffic-ratio(paper:<0.5)")
}

func BenchmarkEvictionStats(b *testing.B) {
	var empty float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Evictions(benchParams())
		var sum float64
		for _, r := range rows {
			sum += r.EmptyPct
		}
		empty = sum / float64(len(rows))
	}
	b.ReportMetric(empty, "%empty-evictions(paper:65.1)")
}

// ---------------------------------------------------------------------------
// Library microbenchmarks: simulation throughput per configuration.
// ---------------------------------------------------------------------------

func benchmarkRun(b *testing.B, name string, opts cgct.Options) {
	opts.OpsPerProc = 60_000
	procs := opts.Processors
	if procs == 0 {
		procs = config.Default().Topology.Processors
	}
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i + 1)
		res, err := cgct.Run(name, opts)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(procs*opts.OpsPerProc*b.N)/b.Elapsed().Seconds(), "trace-ops/s")
	b.ReportMetric(float64(cycles), "sim-cycles")
}

func BenchmarkSimBaselineOcean(b *testing.B) { benchmarkRun(b, "ocean", cgct.Options{}) }
func BenchmarkSimCGCTOcean(b *testing.B)     { benchmarkRun(b, "ocean", cgct.Options{CGCT: true}) }
func BenchmarkSimBaselineTPCW(b *testing.B)  { benchmarkRun(b, "tpc-w", cgct.Options{}) }
func BenchmarkSimCGCTTPCW(b *testing.B)      { benchmarkRun(b, "tpc-w", cgct.Options{CGCT: true}) }
func BenchmarkSimCGCTTPCH(b *testing.B)      { benchmarkRun(b, "tpc-h", cgct.Options{CGCT: true}) }
func BenchmarkSim16Processors(b *testing.B) {
	benchmarkRun(b, "tpc-b", cgct.Options{Processors: 16, CGCT: true})
}

func BenchmarkAblation(b *testing.B) {
	p := benchParams()
	p.Benchmarks = []string{"tpc-w", "tpc-h"}
	var scaledShare float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Ablation(p)
		var full, scaled float64
		for _, r := range rows {
			full += r.Full
			scaled += r.Scaled
		}
		if full > 0 {
			scaledShare = scaled / full
		}
	}
	b.ReportMetric(scaledShare, "3-state/7-state-benefit")
}

func BenchmarkFabricComparison(b *testing.B) {
	p := benchParams()
	p.Benchmarks = []string{"barnes", "tpc-w"}
	var threeHops float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fabric(p, []int{4})
		for _, r := range rows {
			threeHops += float64(r.DirThreeHops)
		}
	}
	b.ReportMetric(threeHops, "directory-3hops")
}

func BenchmarkEnergy(b *testing.B) {
	p := benchParams()
	p.Benchmarks = []string{"tpc-w"}
	var save float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Energy(p)
		save = rows[0].SavingsPct
	}
	b.ReportMetric(save, "%energy-saved")
}

func BenchmarkSectoring(b *testing.B) {
	p := benchParams()
	p.Benchmarks = []string{"specweb99"}
	var fragPct float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Sectoring(p)
		fragPct = rows[0].Sector512Pct
	}
	b.ReportMetric(fragPct, "%miss-increase-sectored")
}
