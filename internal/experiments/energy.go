package experiments

import "cgct"

// EnergyRow quantifies the §6 power discussion for one benchmark: where
// CGCT saves energy (address network, remote tag probes) and what the
// Region Coherence Array's own lookups cost.
type EnergyRow struct {
	Benchmark string
	// Totals in the relative units of internal/energy (DRAM access = 100).
	BaseTotal, CGCTTotal float64
	// SavingsPct is the net energy reduction (positive = CGCT cheaper).
	SavingsPct float64
	// Component deltas (positive = CGCT spends less on the component).
	NetworkSaved, TagProbesSaved float64
	// RegionOverhead is the energy the region tracking itself adds — the
	// paper's "additional logic may cancel out some of that savings".
	RegionOverhead float64
	// OverheadShare is RegionOverhead as a fraction of the gross savings.
	OverheadShare float64
}

// Energy runs the baseline/CGCT energy comparison at 512 B regions.
func Energy(p Params) []EnergyRow {
	p = p.withDefaults()
	runs := p.runAll(p.sweep(p.Seeds, cgct.Options{}, cgctAt(512)))
	var rows []EnergyRow
	for _, b := range p.sortedBenchmarks() {
		var baseTot, cgTot, netSave, tagSave, regOvh []float64
		for _, s := range p.Seeds {
			base := runs[p.request(b, s, cgct.Options{})]
			cg := runs[p.request(b, s, cgctAt(512))]
			baseTot = append(baseTot, base.Energy.Total)
			cgTot = append(cgTot, cg.Energy.Total)
			netSave = append(netSave, base.Energy.Network-cg.Energy.Network)
			tagSave = append(tagSave, base.Energy.TagProbes-cg.Energy.TagProbes)
			regOvh = append(regOvh, cg.Energy.Region-base.Energy.Region)
		}
		row := EnergyRow{
			Benchmark:      b,
			BaseTotal:      mean(baseTot),
			CGCTTotal:      mean(cgTot),
			NetworkSaved:   mean(netSave),
			TagProbesSaved: mean(tagSave),
			RegionOverhead: mean(regOvh),
		}
		if row.BaseTotal > 0 {
			row.SavingsPct = 100 * (row.BaseTotal - row.CGCTTotal) / row.BaseTotal
		}
		if gross := row.NetworkSaved + row.TagProbesSaved; gross > 0 {
			row.OverheadShare = row.RegionOverhead / gross
		}
		rows = append(rows, row)
	}
	return rows
}
