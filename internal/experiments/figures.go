package experiments

import (
	"fmt"
	"strings"

	"cgct"
	"cgct/internal/config"
	"cgct/internal/core"
	"cgct/internal/stats"
)

// RegionSizes are the region sizes evaluated in the paper.
var RegionSizes = []uint64{256, 512, 1024}

// regionSweep lists the runs of Figures 7 and 8: the baseline and CGCT at
// every region size.
func regionSweep(p Params) []cgct.RunRequest {
	machines := []cgct.Options{{}}
	for _, rb := range RegionSizes {
		machines = append(machines, cgctAt(rb))
	}
	return p.sweep(p.Seeds, machines...)
}

// ---------------------------------------------------------------------------
// Figure 2 — unnecessary broadcasts in the baseline system
// ---------------------------------------------------------------------------

// Figure2Row is one benchmark's bar: the percentage of all broadcasts that
// an oracle would have skipped, split into the paper's four categories.
type Figure2Row struct {
	Benchmark  string
	DataPct    float64 // reads/writes (incl. prefetches, upgrades)
	WBPct      float64
	IFetchPct  float64
	DCBPct     float64
	TotalPct   float64
	Broadcasts uint64
}

// Figure2 reproduces Figure 2 on the baseline system (averaged over seeds).
func Figure2(p Params) []Figure2Row {
	p = p.withDefaults()
	runs := p.runAll(p.sweep(p.Seeds, cgct.Options{}))
	var rows []Figure2Row
	for _, b := range p.sortedBenchmarks() {
		var data, wb, ifetch, dcb, tot []float64
		var bcasts uint64
		for _, s := range p.Seeds {
			res := runs[p.request(b, s, cgct.Options{})]
			den := float64(res.Broadcasts)
			if den == 0 {
				continue
			}
			data = append(data, 100*float64(res.UnnecessaryByCat.Data)/den)
			wb = append(wb, 100*float64(res.UnnecessaryByCat.Writebacks)/den)
			ifetch = append(ifetch, 100*float64(res.UnnecessaryByCat.IFetches)/den)
			dcb = append(dcb, 100*float64(res.UnnecessaryByCat.DCBOps)/den)
			tot = append(tot, 100*res.UnnecessaryFraction())
			bcasts += res.Broadcasts
		}
		rows = append(rows, Figure2Row{
			Benchmark: b,
			DataPct:   mean(data), WBPct: mean(wb), IFetchPct: mean(ifetch), DCBPct: mean(dcb),
			TotalPct:   mean(tot),
			Broadcasts: bcasts / uint64(len(p.Seeds)),
		})
	}
	return rows
}

// Figure2Average returns the all-benchmark mean of the total bars (the
// paper reports 67%).
func Figure2Average(rows []Figure2Row) float64 {
	var tot []float64
	for _, r := range rows {
		tot = append(tot, r.TotalPct)
	}
	return mean(tot)
}

// ---------------------------------------------------------------------------
// Figure 6 — memory request latency scenarios
// ---------------------------------------------------------------------------

// Figure6Row is one latency timeline, in system (interconnect) cycles.
type Figure6Row struct {
	Scenario   string
	Components string  // human-readable breakdown
	SysCycles  float64 // model total
	PaperSys   float64 // the paper's figure (0 when not given)
}

// Figure6 computes the request-latency scenarios of Figure 6 from the
// Table 3 latency model (no simulation involved).
func Figure6() []Figure6Row {
	net := config.Default().Net
	sys := func(cpu uint64) float64 { return float64(cpu) / config.CPUCyclesPerSystemCycle }
	snoop := func(transfer uint64) (float64, string) {
		total := net.SnoopLatency + net.DRAMOverlapExtra + transfer
		return sys(total), fmt.Sprintf("snoop(%.0f) + dram(+%.0f) + transfer(%.0f)",
			sys(net.SnoopLatency), sys(net.DRAMOverlapExtra), sys(transfer))
	}
	direct := func(req, transfer uint64) (float64, string) {
		total := req + net.DRAMLatency + transfer
		return sys(total), fmt.Sprintf("request(%.1f) + dram(%.0f) + transfer(%.0f)",
			sys(req), sys(net.DRAMLatency), sys(transfer))
	}
	var rows []Figure6Row
	add := func(name string, total float64, comp string, paper float64) {
		rows = append(rows, Figure6Row{Scenario: name, Components: comp, SysCycles: total, PaperSys: paper})
	}
	t, c := snoop(net.TransferSameSwitch)
	add("snoop own memory", t, c, 25)
	t, c = direct(net.DirectReqSameChip, net.TransferSameSwitch)
	add("direct own memory", t, c, 18)
	t, c = snoop(net.TransferSameSwitch)
	add("snoop same-data-switch memory", t, c, 25)
	t, c = direct(net.DirectReqSameSwitch, net.TransferSameSwitch)
	add("direct same-data-switch memory", t, c, 20)
	t, c = snoop(net.TransferSameBoard)
	add("snoop same-board memory", t, c, 30)
	t, c = direct(net.DirectReqSameBoard, net.TransferSameBoard)
	add("direct same-board memory", t, c, 27)
	t, c = snoop(net.TransferRemote)
	add("snoop remote memory", t, c, 0)
	t, c = direct(net.DirectReqRemote, net.TransferRemote)
	add("direct remote memory", t, c, 0)
	return rows
}

// ---------------------------------------------------------------------------
// Figure 7 — broadcasts avoided by CGCT vs. the oracle opportunity
// ---------------------------------------------------------------------------

// Figure7Row compares the oracle opportunity with what CGCT captures for
// each region size, as a percentage of all fabric requests.
type Figure7Row struct {
	Benchmark string
	OraclePct float64            // unnecessary broadcasts (Figure 2 bar)
	Avoided   map[uint64]float64 // region size -> % of requests not broadcast
	AvoidedWB map[uint64]float64 // the write-back share of Avoided (paper stacks WBs on top)
	Captured  map[uint64]float64 // Avoided as a fraction of the oracle bar (paper: 55-97%)
}

// Figure7 reproduces Figure 7.
func Figure7(p Params) []Figure7Row {
	p = p.withDefaults()
	runs := p.runAll(regionSweep(p))
	var rows []Figure7Row
	for _, b := range p.sortedBenchmarks() {
		row := Figure7Row{
			Benchmark: b,
			Avoided:   map[uint64]float64{},
			AvoidedWB: map[uint64]float64{},
			Captured:  map[uint64]float64{},
		}
		var oracle []float64
		for _, s := range p.Seeds {
			res := runs[p.request(b, s, cgct.Options{})]
			oracle = append(oracle, 100*res.UnnecessaryFraction())
		}
		row.OraclePct = mean(oracle)
		for _, rb := range RegionSizes {
			var av, avWB []float64
			for _, s := range p.Seeds {
				res := runs[p.request(b, s, cgctAt(rb))]
				av = append(av, 100*res.AvoidedFraction())
				avWB = append(avWB, 100*float64(res.AvoidedByCat.Writebacks)/float64(res.Requests))
			}
			row.Avoided[rb] = mean(av)
			row.AvoidedWB[rb] = mean(avWB)
			if row.OraclePct > 0 {
				row.Captured[rb] = 100 * row.Avoided[rb] / row.OraclePct
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figure 8 — run-time reduction per region size
// ---------------------------------------------------------------------------

// Sample is a mean with a 95% confidence half-width.
type Sample struct {
	Mean float64
	CI95 float64
}

// Figure8Row is one benchmark's run-time reduction for each region size.
type Figure8Row struct {
	Benchmark string
	Reduction map[uint64]Sample // region size -> % run-time reduction
}

// Figure8 reproduces Figure 8 (run-time reduction with 95% CIs over seeds).
func Figure8(p Params) []Figure8Row {
	p = p.withDefaults()
	runs := p.runAll(regionSweep(p))
	var rows []Figure8Row
	for _, b := range p.sortedBenchmarks() {
		row := Figure8Row{Benchmark: b, Reduction: map[uint64]Sample{}}
		for _, rb := range RegionSizes {
			var red []float64
			for _, s := range p.Seeds {
				base := runs[p.request(b, s, cgct.Options{})]
				cg := runs[p.request(b, s, cgctAt(rb))]
				red = append(red, stats.SpeedupPct(base.Cycles, cg.Cycles))
			}
			row.Reduction[rb] = Sample{Mean: mean(red), CI95: ci95(red)}
		}
		rows = append(rows, row)
	}
	return rows
}

// Figure8Averages returns the overall and commercial-only mean reduction
// for one region size (the paper reports 8.8% overall / 10.4% commercial
// at 512 B).
func Figure8Averages(rows []Figure8Row, region uint64) (overall, commercial float64) {
	commercialSet := map[string]bool{
		"specweb99": true, "specjbb2000": true, "tpc-w": true, "tpc-b": true, "tpc-h": true,
	}
	var all, com []float64
	for _, r := range rows {
		m := r.Reduction[region].Mean
		all = append(all, m)
		if commercialSet[r.Benchmark] {
			com = append(com, m)
		}
	}
	return mean(all), mean(com)
}

// ---------------------------------------------------------------------------
// Figure 9 — half-size Region Coherence Array
// ---------------------------------------------------------------------------

// Figure9Row compares the full (8192-set) and half (4096-set) RCA at 512 B
// regions.
type Figure9Row struct {
	Benchmark string
	Full      Sample // % run-time reduction, 16K entries
	Half      Sample // % run-time reduction, 8K entries
}

// Figure9 reproduces Figure 9.
func Figure9(p Params) []Figure9Row {
	p = p.withDefaults()
	halfRCA := cgctAt(512)
	halfRCA.RCASets = 4096
	runs := p.runAll(p.sweep(p.Seeds, cgct.Options{}, cgctAt(512), halfRCA))
	var rows []Figure9Row
	for _, b := range p.sortedBenchmarks() {
		var full, half []float64
		for _, s := range p.Seeds {
			base := runs[p.request(b, s, cgct.Options{})]
			f := runs[p.request(b, s, cgctAt(512))]
			h := runs[p.request(b, s, halfRCA)]
			full = append(full, stats.SpeedupPct(base.Cycles, f.Cycles))
			half = append(half, stats.SpeedupPct(base.Cycles, h.Cycles))
		}
		rows = append(rows, Figure9Row{
			Benchmark: b,
			Full:      Sample{Mean: mean(full), CI95: ci95(full)},
			Half:      Sample{Mean: mean(half), CI95: ci95(half)},
		})
	}
	return rows
}

// ---------------------------------------------------------------------------
// Figure 10 — broadcast traffic, average and peak
// ---------------------------------------------------------------------------

// Figure10Row gives broadcasts per 100K cycles for the baseline and the
// 512 B CGCT system.
type Figure10Row struct {
	Benchmark           string
	BaseAvg, CGCTAvg    float64
	BasePeak, CGCTPeak  float64
	AvgRatio, PeakRatio float64 // CGCT / baseline (paper: both < 0.5 overall)
}

// Figure10 reproduces Figure 10.
func Figure10(p Params) []Figure10Row {
	p = p.withDefaults()
	runs := p.runAll(p.sweep(p.Seeds, cgct.Options{}, cgctAt(512)))
	var rows []Figure10Row
	for _, b := range p.sortedBenchmarks() {
		var ba, ca, bp, cp []float64
		for _, s := range p.Seeds {
			base := runs[p.request(b, s, cgct.Options{})]
			cg := runs[p.request(b, s, cgctAt(512))]
			ba = append(ba, base.AvgBroadcastsPer100K)
			ca = append(ca, cg.AvgBroadcastsPer100K)
			bp = append(bp, float64(base.PeakBroadcastsPer100K))
			cp = append(cp, float64(cg.PeakBroadcastsPer100K))
		}
		row := Figure10Row{
			Benchmark: b,
			BaseAvg:   mean(ba), CGCTAvg: mean(ca),
			BasePeak: mean(bp), CGCTPeak: mean(cp),
		}
		if row.BaseAvg > 0 {
			row.AvgRatio = row.CGCTAvg / row.BaseAvg
		}
		if row.BasePeak > 0 {
			row.PeakRatio = row.CGCTPeak / row.BasePeak
		}
		rows = append(rows, row)
	}
	return rows
}

// ---------------------------------------------------------------------------
// §3.2 — RCA eviction statistics
// ---------------------------------------------------------------------------

// EvictionRow reports the region-eviction statistics of §3.2 (the paper:
// 65.1% of evicted 512 B regions empty, 17.2% one line, 5.1% two; 2.8-5
// lines cached per region on average).
type EvictionRow struct {
	Benchmark      string
	EmptyPct       float64
	AvgLinesAtEv   float64
	SelfInvals     uint64
	RCAHitRatio    float64
	L2MissRatioCG  float64
	L2MissRatioBas float64
}

// Evictions reproduces the §3.2 statistics at 512 B regions.
func Evictions(p Params) []EvictionRow {
	p = p.withDefaults()
	s := p.Seeds[0]
	runs := p.runAll(p.sweep(p.Seeds[:1], cgct.Options{}, cgctAt(512)))
	var rows []EvictionRow
	for _, b := range p.sortedBenchmarks() {
		base := runs[p.request(b, s, cgct.Options{})]
		cg := runs[p.request(b, s, cgctAt(512))]
		rows = append(rows, EvictionRow{
			Benchmark:      b,
			EmptyPct:       100 * cg.RCAEmptyEvictFrac,
			AvgLinesAtEv:   cg.AvgLinesAtEviction,
			SelfInvals:     cg.RCASelfInvals,
			RCAHitRatio:    cg.RCAHitRatio,
			L2MissRatioCG:  cg.L2MissRatio,
			L2MissRatioBas: base.L2MissRatio,
		})
	}
	return rows
}

// ---------------------------------------------------------------------------
// Tables 1 and 2 (delegated to internal/core)
// ---------------------------------------------------------------------------

// Table1 returns the region-state definition table.
func Table1() []core.Table1Row { return core.Table1() }

// Table2 returns the storage-overhead table.
func Table2() []core.OverheadRow { return core.DefaultStorageModel().Table2() }

// ---------------------------------------------------------------------------
// Text rendering
// ---------------------------------------------------------------------------

// Render formats rows of any experiment as an aligned text table.
func Render(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := len(c); p < width[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
	return sb.String()
}
