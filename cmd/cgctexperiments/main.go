// Command cgctexperiments regenerates the paper's tables and figures.
//
// Usage:
//
//	cgctexperiments -experiment all
//	cgctexperiments -experiment fig8 -ops 400000 -seeds 3
//	cgctexperiments -experiment fig2 -benchmarks tpc-w,tpc-h
//
// -experiment names one experiment, or all of them in a fixed order;
// -h lists the names. With -csv DIR, each experiment's rows are also
// written to DIR/<name>.csv.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"cgct"
	"cgct/internal/experiments"
	"cgct/internal/profiling"
)

// csvDir, when set, receives one CSV file per experiment next to the
// printed tables.
var csvDir string

// csvFailed records any CSV write error; main exits nonzero when set, so
// a partial --csv directory can't masquerade as a successful export.
var csvFailed bool

// emit prints a rendered table and mirrors it to <csvDir>/<name>.csv.
func emit(name string, header []string, rows [][]string) {
	fmt.Println(experiments.Render(header, rows))
	if csvDir == "" {
		return
	}
	path := filepath.Join(csvDir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "csv %s: %v\n", path, err)
		csvFailed = true
		return
	}
	w := csv.NewWriter(f)
	_ = w.Write(header) // errors surface via w.Error() after Flush
	_ = w.WriteAll(rows)
	w.Flush()
	if err := w.Error(); err != nil {
		fmt.Fprintf(os.Stderr, "csv %s: %v\n", path, err)
		csvFailed = true
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "csv %s: %v\n", path, err)
		csvFailed = true
	}
}

// experiment is one table or figure: its -experiment name and printer.
type experiment struct {
	name string
	run  func(experiments.Params)
}

// catalog lists every experiment once, in the order -experiment all runs
// them; selectExperiments and the -experiment help text read it too.
var catalog = []experiment{
	{"table1", printTable1},
	{"table2", printTable2},
	{"fig6", printFig6},
	{"fig2", printFig2},
	{"fig7", printFig7},
	{"fig8", printFig8},
	{"fig9", printFig9},
	{"fig10", printFig10},
	{"evictions", printEvictions},
	{"ablation", printAblation},
	{"fabric", printFabric},
	{"energy", printEnergy},
	{"sectoring", printSectoring},
}

// catalogNames joins the catalog's names, in order, with commas.
func catalogNames() string {
	names := make([]string, len(catalog))
	for i, e := range catalog {
		names[i] = e.name
	}
	return strings.Join(names, ",")
}

// selectExperiments resolves -experiment: "all" is the whole catalog, any
// other value must name one entry.
func selectExperiments(name string) ([]experiment, error) {
	if name == "all" {
		return catalog, nil
	}
	if i := slices.IndexFunc(catalog, func(e experiment) bool { return e.name == name }); i >= 0 {
		return catalog[i : i+1], nil
	}
	return nil, fmt.Errorf("-experiment: unknown experiment %q (known: %s,all)", name, catalogNames())
}

func main() {
	var (
		exp        = flag.String("experiment", "all", "which experiment to run ("+catalogNames()+",all)")
		ops        = flag.Int("ops", 400_000, "trace length per processor")
		seeds      = flag.Int("seeds", 3, "number of seeded runs per configuration")
		benchmarks = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all nine)")
		parallel   = flag.Int("parallel", 0, "independent simulations run at once by each sweep's worker pool (default GOMAXPROCS)")
		csvOut     = flag.String("csv", "", "also write each experiment's rows to CSV files in this directory")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()
	p, err := sweepParams(*ops, *seeds, *benchmarks, *parallel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	selected, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	csvDir = *csvOut
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	for _, e := range selected {
		e.run(p)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		csvFailed = true
	}
	if csvFailed {
		os.Exit(1)
	}
}

// sweepParams builds the experiments' parameters from the command-line
// flags, rejecting what no sweep can run: a name not in cgct.Benchmarks()
// (" tpc-h", with its space, included) and fewer than one seed or op.
func sweepParams(ops, seeds int, benchmarks string, parallel int) (experiments.Params, error) {
	if ops < 1 {
		return experiments.Params{}, fmt.Errorf("-ops %d: need at least 1 op per processor", ops)
	}
	if seeds < 1 {
		return experiments.Params{}, fmt.Errorf("-seeds %d: need at least 1 seed", seeds)
	}
	p := experiments.Params{OpsPerProc: ops, Parallel: parallel}
	for i := 0; i < seeds; i++ {
		p.Seeds = append(p.Seeds, uint64(i+1))
	}
	if benchmarks == "" {
		return p, nil
	}
	var names []string
	for _, b := range cgct.Benchmarks() {
		names = append(names, b.Name)
	}
	p.Benchmarks = strings.Split(benchmarks, ",")
	for _, b := range p.Benchmarks {
		if !slices.Contains(names, b) {
			return experiments.Params{}, fmt.Errorf("-benchmarks: unknown benchmark %q (known: %s)", b, strings.Join(names, ","))
		}
	}
	return p, nil
}

func printTable1(experiments.Params) {
	fmt.Println("== Table 1: region protocol states ==")
	var rows [][]string
	for _, r := range experiments.Table1() {
		rows = append(rows, []string{r.State.String(), r.Processor, r.OtherProcessors, r.BroadcastNeeded})
	}
	emit("table1", []string{"State", "Processor", "Other Processors", "Broadcast Needed?"}, rows)
}

func printTable2(experiments.Params) {
	fmt.Println("== Table 2: RCA storage overhead ==")
	var rows [][]string
	for _, r := range experiments.Table2() {
		rows = append(rows, []string{
			fmt.Sprintf("%dK", r.Entries/1024),
			fmt.Sprintf("%dB", r.RegionBytes),
			fmt.Sprint(r.TagBits), fmt.Sprint(r.StateBits), fmt.Sprint(r.LineCount),
			fmt.Sprint(r.MemCtrlBits), fmt.Sprint(r.LRUBits), fmt.Sprint(r.ECCBits),
			fmt.Sprint(r.TotalBits),
			fmt.Sprintf("%.1f%%", 100*r.TagSpaceOverhead),
			fmt.Sprintf("%.1f%%", 100*r.CacheSpaceOverhead),
		})
	}
	emit("table2", []string{"Entries", "Region", "Tag", "State", "Count", "MC", "LRU", "ECC", "Bits/set", "TagOvh", "CacheOvh"}, rows)
}

func printFig2(p experiments.Params) {
	fmt.Println("== Figure 2: unnecessary broadcasts (baseline, oracle classification) ==")
	rows := experiments.Figure2(p)
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Benchmark,
			fmt.Sprintf("%.1f", r.DataPct), fmt.Sprintf("%.1f", r.WBPct),
			fmt.Sprintf("%.1f", r.IFetchPct), fmt.Sprintf("%.1f", r.DCBPct),
			fmt.Sprintf("%.1f", r.TotalPct),
		})
	}
	emit("figure2", []string{"benchmark", "data%", "wb%", "ifetch%", "dcb%", "total%"}, out)
	fmt.Printf("average unnecessary: %.1f%% (paper: 67%%, range 15-94%%)\n\n", experiments.Figure2Average(rows))
}

func printFig6(experiments.Params) {
	fmt.Println("== Figure 6: memory request latency (system cycles) ==")
	var out [][]string
	for _, r := range experiments.Figure6() {
		paper := "-"
		if r.PaperSys > 0 {
			paper = fmt.Sprintf("%.0f", r.PaperSys)
		}
		out = append(out, []string{r.Scenario, r.Components, fmt.Sprintf("%.1f", r.SysCycles), paper})
	}
	emit("figure6", []string{"scenario", "components", "model", "paper"}, out)
}

func printFig7(p experiments.Params) {
	fmt.Println("== Figure 7: broadcasts avoided by CGCT (% of all requests) ==")
	var out [][]string
	for _, r := range experiments.Figure7(p) {
		out = append(out, []string{
			r.Benchmark, fmt.Sprintf("%.1f", r.OraclePct),
			fmt.Sprintf("%.1f", r.Avoided[256]), fmt.Sprintf("%.1f", r.Avoided[512]), fmt.Sprintf("%.1f", r.Avoided[1024]),
			fmt.Sprintf("%.0f%%", r.Captured[512]),
		})
	}
	emit("figure7", []string{"benchmark", "oracle%", "256B", "512B", "1KB", "captured@512B"}, out)
	fmt.Println("(paper: CGCT eliminates 55-97% of the unnecessary broadcasts)")
	fmt.Println()
}

func printFig8(p experiments.Params) {
	fmt.Println("== Figure 8: run-time reduction (%) ==")
	rows := experiments.Figure8(p)
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Benchmark,
			fmt.Sprintf("%.1f ±%.1f", r.Reduction[256].Mean, r.Reduction[256].CI95),
			fmt.Sprintf("%.1f ±%.1f", r.Reduction[512].Mean, r.Reduction[512].CI95),
			fmt.Sprintf("%.1f ±%.1f", r.Reduction[1024].Mean, r.Reduction[1024].CI95),
		})
	}
	emit("figure8", []string{"benchmark", "256B", "512B", "1KB"}, out)
	overall, commercial := experiments.Figure8Averages(rows, 512)
	fmt.Printf("512B averages: overall %.1f%% (paper 8.8%%), commercial %.1f%% (paper 10.4%%)\n\n", overall, commercial)
}

func printFig9(p experiments.Params) {
	fmt.Println("== Figure 9: half-size RCA (512B regions) ==")
	var out [][]string
	for _, r := range experiments.Figure9(p) {
		out = append(out, []string{
			r.Benchmark,
			fmt.Sprintf("%.1f ±%.1f", r.Full.Mean, r.Full.CI95),
			fmt.Sprintf("%.1f ±%.1f", r.Half.Mean, r.Half.CI95),
			fmt.Sprintf("%.2f", r.Full.Mean-r.Half.Mean),
		})
	}
	emit("figure9", []string{"benchmark", "16K entries", "8K entries", "delta"}, out)
	fmt.Println("(paper: only ~1% difference on average)")
	fmt.Println()
}

func printFig10(p experiments.Params) {
	fmt.Println("== Figure 10: broadcasts per 100K cycles ==")
	var out [][]string
	for _, r := range experiments.Figure10(p) {
		out = append(out, []string{
			r.Benchmark,
			fmt.Sprintf("%.0f", r.BaseAvg), fmt.Sprintf("%.0f", r.CGCTAvg), fmt.Sprintf("%.2f", r.AvgRatio),
			fmt.Sprintf("%.0f", r.BasePeak), fmt.Sprintf("%.0f", r.CGCTPeak), fmt.Sprintf("%.2f", r.PeakRatio),
		})
	}
	emit("figure10", []string{"benchmark", "base avg", "cgct avg", "ratio", "base peak", "cgct peak", "ratio"}, out)
	fmt.Println("(paper: average and peak both reduced to less than half)")
	fmt.Println()
}

func printEvictions(p experiments.Params) {
	fmt.Println("== §3.2: RCA eviction statistics (512B regions) ==")
	var out [][]string
	for _, r := range experiments.Evictions(p) {
		out = append(out, []string{
			r.Benchmark,
			fmt.Sprintf("%.1f", r.EmptyPct),
			fmt.Sprintf("%.1f", r.AvgLinesAtEv),
			fmt.Sprint(r.SelfInvals),
			fmt.Sprintf("%.2f", r.RCAHitRatio),
			fmt.Sprintf("%.4f", r.L2MissRatioBas),
			fmt.Sprintf("%.4f", r.L2MissRatioCG),
		})
	}
	emit("evictions", []string{"benchmark", "empty-evict%", "avg lines", "self-invals", "rca hit", "L2 miss (base)", "L2 miss (cgct)"}, out)
	fmt.Println("(paper: 65.1% empty, miss-ratio increase ~1.2%)")
	fmt.Println()
}

func printAblation(p experiments.Params) {
	fmt.Println("== Ablation: 7-state vs scaled-back 3-state protocol (§3.4), prefetch filter (§6) ==")
	var out [][]string
	for _, r := range experiments.Ablation(p) {
		out = append(out, []string{
			r.Benchmark,
			fmt.Sprintf("%.1f", r.Full), fmt.Sprintf("%.1f", r.Scaled),
			fmt.Sprintf("%.1f", r.FullWithFilter), fmt.Sprintf("%.1f", r.FullWithRegionPf),
			fmt.Sprintf("%.1f", r.FullAvoided), fmt.Sprintf("%.1f", r.ScaledAvoided),
		})
	}
	emit("ablation", []string{"benchmark", "red% 7-state", "red% 3-state", "red% +pf-filter", "red% +region-pf", "avoid% 7st", "avoid% 3st"}, out)
	fmt.Println("(paper §3.4: one response bit suffices for a cheaper but less effective design)")
	fmt.Println()
}

func printFabric(p experiments.Params) {
	fmt.Println("== Fabric comparison: snooping baseline vs CGCT vs directory (±CGCT) ==")
	var out [][]string
	for _, r := range experiments.Fabric(p, []int{4, 16}) {
		out = append(out, []string{
			fmt.Sprintf("%d", r.Processors), r.Benchmark,
			fmt.Sprintf("%.1f", r.CGCT), fmt.Sprintf("%.1f", r.Scout),
			fmt.Sprintf("%.1f", r.Directory), fmt.Sprintf("%.1f", r.DirCGCT),
			fmt.Sprint(r.CGCTC2C), fmt.Sprint(r.DirThreeHops),
			fmt.Sprint(r.BaseBroadcasts), fmt.Sprint(r.CGCTBroadcasts),
			fmt.Sprint(r.DirMessages), fmt.Sprint(r.DirCGCTMessages), fmt.Sprint(r.DirFastPaths),
		})
	}
	emit("fabric", []string{"procs", "benchmark", "cgct red%", "scout red%", "dir red%", "dir+cgct red%", "cgct c2c", "dir 3-hop", "base bcast", "cgct bcast", "dir msgs", "dir+cgct msgs", "fast paths"}, out)
	fmt.Println("(the paper's intro: CGCT gets directory-like latency for non-shared data")
	fmt.Println(" while keeping two-hop cache-to-cache transfers and the snooping substrate)")
	fmt.Println()
}

func printEnergy(p experiments.Params) {
	fmt.Println("== §6 energy model: where CGCT saves and what the RCA costs ==")
	var out [][]string
	for _, r := range experiments.Energy(p) {
		out = append(out, []string{
			r.Benchmark,
			fmt.Sprintf("%.0f", r.BaseTotal/1000), fmt.Sprintf("%.0f", r.CGCTTotal/1000),
			fmt.Sprintf("%.1f", r.SavingsPct),
			fmt.Sprintf("%.0f", r.NetworkSaved/1000), fmt.Sprintf("%.0f", r.TagProbesSaved/1000),
			fmt.Sprintf("%.0f", r.RegionOverhead/1000),
			fmt.Sprintf("%.2f", r.OverheadShare),
		})
	}
	emit("energy", []string{"benchmark", "base (k)", "cgct (k)", "save%", "net saved", "tag saved", "rca cost", "cost/gross"}, out)
	fmt.Println("(§6: network, tag-lookup and DRAM energy can be saved; the RCA's own")
	fmt.Println(" lookups cancel part of it — the cost/gross column quantifies how much)")
	fmt.Println()
}

func printSectoring(p experiments.Params) {
	fmt.Println("== §2: sectored caches vs CGCT (L2 miss ratios) ==")
	var out [][]string
	for _, r := range experiments.Sectoring(p) {
		out = append(out, []string{
			r.Benchmark,
			fmt.Sprintf("%.4f", r.Baseline),
			fmt.Sprintf("%.4f (%+.1f%%)", r.Sector512, r.Sector512Pct),
			fmt.Sprintf("%.4f (%+.1f%%)", r.Sector1K, r.Sector1KPct),
			fmt.Sprintf("%.4f (%+.1f%%)", r.CGCT512, r.CGCTPct),
		})
	}
	emit("sectoring", []string{"benchmark", "baseline", "sectored 512B", "sectored 1KB", "CGCT 512B"}, out)
	fmt.Println("(§2: sector fragmentation raises miss ratios; CGCT tracks regions beside")
	fmt.Println(" the cache and leaves the miss ratio essentially unchanged)")
	fmt.Println()
}
