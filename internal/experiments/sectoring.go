package experiments

import "cgct"

// SectoringRow contrasts the two ways of tracking coarse granularity that
// §2 discusses: sectoring the cache itself (fewer tags, but internal
// fragmentation raises the miss ratio) versus CGCT (region state tracked
// beside the cache — "does not significantly affect cache miss rate").
type SectoringRow struct {
	Benchmark string
	// L2 miss ratios.
	Baseline, Sector512, Sector1K, CGCT512 float64
	// Percentage increases over the baseline miss ratio.
	Sector512Pct, Sector1KPct, CGCTPct float64
}

// Sectoring measures L2 miss ratios for the conventional, sectored and
// CGCT configurations.
func Sectoring(p Params) []SectoringRow {
	p = p.withDefaults()
	sector512 := cgct.Options{L2SectorBytes: 512}
	sector1K := cgct.Options{L2SectorBytes: 1024}
	// Miss ratios report no confidence interval, so these runs go without
	// the seed perturbation the timing figures need.
	req := func(b string, seed uint64, o cgct.Options) cgct.RunRequest {
		rq := p.request(b, seed, o)
		rq.Options.PerturbCycles = 0
		return rq
	}
	var reqs []cgct.RunRequest
	for _, b := range p.sortedBenchmarks() {
		for _, seed := range p.Seeds {
			reqs = append(reqs, req(b, seed, cgct.Options{}), req(b, seed, sector512),
				req(b, seed, sector1K), req(b, seed, cgctAt(512)))
		}
	}
	runs := p.runAll(reqs)
	var rows []SectoringRow
	for _, b := range p.sortedBenchmarks() {
		var base, s512, s1k, cg []float64
		for _, seed := range p.Seeds {
			base = append(base, runs[req(b, seed, cgct.Options{})].L2MissRatio)
			s512 = append(s512, runs[req(b, seed, sector512)].L2MissRatio)
			s1k = append(s1k, runs[req(b, seed, sector1K)].L2MissRatio)
			cg = append(cg, runs[req(b, seed, cgctAt(512))].L2MissRatio)
		}
		row := SectoringRow{
			Benchmark: b,
			Baseline:  mean(base), Sector512: mean(s512), Sector1K: mean(s1k), CGCT512: mean(cg),
		}
		if row.Baseline > 0 {
			row.Sector512Pct = 100 * (row.Sector512 - row.Baseline) / row.Baseline
			row.Sector1KPct = 100 * (row.Sector1K - row.Baseline) / row.Baseline
			row.CGCTPct = 100 * (row.CGCT512 - row.Baseline) / row.Baseline
		}
		rows = append(rows, row)
	}
	return rows
}
