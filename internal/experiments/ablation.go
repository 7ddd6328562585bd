package experiments

import (
	"cgct"
	"cgct/internal/stats"
)

// AblationRow compares the full seven-state protocol against the §3.4
// scaled-back three-state variant, and measures the §6 prefetch-filter
// extension, all at 512 B regions.
type AblationRow struct {
	Benchmark string
	// Run-time reduction over the baseline, %.
	Full, Scaled, FullWithFilter, FullWithRegionPf float64
	// Fraction of requests kept off the broadcast network, %.
	FullAvoided, ScaledAvoided float64
}

// Ablation runs the design-choice study: how much of CGCT's benefit
// survives with one response bit instead of two, and what the
// region-guided prefetch filter adds.
func Ablation(p Params) []AblationRow {
	p = p.withDefaults()
	fullCfg := cgctAt(512)
	scaledCfg, filterCfg, regionPfCfg := fullCfg, fullCfg, fullCfg
	scaledCfg.ScaledBack = true
	filterCfg.PrefetchRegionFilter = true
	regionPfCfg.RegionPrefetch = true
	runs := p.runAll(p.sweep(p.Seeds, cgct.Options{}, fullCfg, scaledCfg, filterCfg, regionPfCfg))

	var rows []AblationRow
	for _, b := range p.sortedBenchmarks() {
		var full, scaled, filtered, regionPf, fullAv, scaledAv []float64
		for _, s := range p.Seeds {
			base := runs[p.request(b, s, cgct.Options{})]
			f := runs[p.request(b, s, fullCfg)]
			sc := runs[p.request(b, s, scaledCfg)]
			fl := runs[p.request(b, s, filterCfg)]
			rp := runs[p.request(b, s, regionPfCfg)]
			full = append(full, stats.SpeedupPct(base.Cycles, f.Cycles))
			scaled = append(scaled, stats.SpeedupPct(base.Cycles, sc.Cycles))
			filtered = append(filtered, stats.SpeedupPct(base.Cycles, fl.Cycles))
			regionPf = append(regionPf, stats.SpeedupPct(base.Cycles, rp.Cycles))
			fullAv = append(fullAv, 100*f.AvoidedFraction())
			scaledAv = append(scaledAv, 100*sc.AvoidedFraction())
		}
		rows = append(rows, AblationRow{
			Benchmark:        b,
			Full:             mean(full),
			Scaled:           mean(scaled),
			FullWithFilter:   mean(filtered),
			FullWithRegionPf: mean(regionPf),
			FullAvoided:      mean(fullAv),
			ScaledAvoided:    mean(scaledAv),
		})
	}
	return rows
}
