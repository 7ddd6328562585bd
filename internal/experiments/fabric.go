package experiments

import (
	"context"

	"cgct"
	"cgct/internal/stats"
)

// FabricRow compares the three coherence fabrics on one benchmark: the
// snooping baseline, CGCT (512 B regions), and a full-map directory — the
// comparison the paper's introduction frames ("much of the benefit of a
// directory-based system ... without the disadvantage of three-hop
// cache-to-cache transfers").
type FabricRow struct {
	Benchmark  string
	Processors int
	// Run-time reduction over the snooping baseline, %. DirCGCT is the
	// directory fabric with an RCA on top — the same region protocol
	// routing requests around the home pipeline instead of around the bus.
	CGCT, Scout, Directory, DirCGCT float64
	// Cache-to-cache transfers: two-hop under snooping/CGCT, three-hop
	// under the directory.
	CGCTC2C, DirThreeHops uint64
	// Address-fabric load: broadcasts (snooping) vs point-to-point
	// messages (directory, with and without CGCT).
	BaseBroadcasts, CGCTBroadcasts, DirMessages, DirCGCTMessages uint64
	// Home transactions CGCT's region protocol kept out of the directory
	// pipeline entirely.
	DirFastPaths uint64
}

// Fabric runs the three-way comparison at the given processor counts
// (e.g. 4 and 16 — at four processors every hop is cheap and the
// directory's home-indirection hardly costs anything; at sixteen, remote
// boards make the third hop expensive).
func Fabric(p Params, processorCounts []int) []FabricRow {
	p = p.withDefaults()
	if len(processorCounts) == 0 {
		processorCounts = []int{4, 16}
	}
	benches := p.sortedBenchmarks()
	// Every (procs, benchmark, seed, variant) run is independent: submit
	// the whole grid as one pool so it spreads over p.Parallel workers.
	var reqs []cgct.RunRequest
	for _, procs := range processorCounts {
		for _, b := range benches {
			for _, s := range p.Seeds {
				for _, o := range fabricVariants(p.OpsPerProc, procs, s) {
					reqs = append(reqs, cgct.RunRequest{Benchmark: b, Options: o})
				}
			}
		}
	}
	res, err := cgct.RunAll(context.Background(), reqs, p.Parallel)
	if err != nil {
		panic(err)
	}
	var rows []FabricRow
	for _, procs := range processorCounts {
		for _, b := range benches {
			runs := make([][5]*cgct.Result, len(p.Seeds))
			for i := range runs {
				copy(runs[i][:], res)
				res = res[5:]
			}
			rows = append(rows, fabricRow(b, procs, runs))
		}
	}
	return rows
}

// fabricVariants is the five-fabric axis of one workload: snooping,
// +CGCT, RegionScout, directory, directory+CGCT.
func fabricVariants(opsPerProc, procs int, seed uint64) [5]cgct.Options {
	base := cgct.Options{
		OpsPerProc:    opsPerProc,
		Seed:          seed,
		Processors:    procs,
		PerturbCycles: perturbCycles,
	}
	v := [5]cgct.Options{base, base, base, base, base}
	v[1].CGCT, v[1].RegionBytes = true, 512
	v[2].RegionScout, v[2].RegionBytes = true, 512
	v[3].Directory = true
	v[4].Directory, v[4].CGCT, v[4].RegionBytes = true, true, 512
	return v
}

// fabricRow averages one benchmark's per-seed fabricVariants results.
func fabricRow(b string, procs int, runs [][5]*cgct.Result) FabricRow {
	var cg, sc, dir, dirCG []float64
	var cgC2C, threeHop, baseB, cgB, dirMsg, dirCGMsg, fastPaths uint64
	for _, rs5 := range runs {
		base, c, rs, d, dc := rs5[0], rs5[1], rs5[2], rs5[3], rs5[4]
		cg = append(cg, stats.SpeedupPct(base.Cycles, c.Cycles))
		sc = append(sc, stats.SpeedupPct(base.Cycles, rs.Cycles))
		dir = append(dir, stats.SpeedupPct(base.Cycles, d.Cycles))
		dirCG = append(dirCG, stats.SpeedupPct(base.Cycles, dc.Cycles))
		cgC2C += c.CacheToCache
		threeHop += d.ThreeHops
		baseB += base.Broadcasts
		cgB += c.Broadcasts
		dirMsg += d.DirMessages
		dirCGMsg += dc.DirMessages
		fastPaths += dc.DirFastPaths
	}
	n := uint64(len(runs))
	return FabricRow{
		Benchmark:  b,
		Processors: procs,
		CGCT:       mean(cg), Scout: mean(sc), Directory: mean(dir), DirCGCT: mean(dirCG),
		CGCTC2C: cgC2C / n, DirThreeHops: threeHop / n,
		BaseBroadcasts: baseB / n, CGCTBroadcasts: cgB / n,
		DirMessages: dirMsg / n, DirCGCTMessages: dirCGMsg / n,
		DirFastPaths: fastPaths / n,
	}
}
