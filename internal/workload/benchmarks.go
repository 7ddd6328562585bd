package workload

import (
	"cgct/internal/addr"
	"cgct/internal/rng"
)

// Benchmark compositions. Each build function reproduces the sharing
// profile of one Table 4 workload:
//
//   - the fraction of misses to data no other processor caches (drives the
//     oracle percentages of Figure 2),
//   - region-grain spatial locality (drives how much of that opportunity
//     CGCT captures, Figure 7),
//   - instruction footprint, write-back pressure and DCBZ page zeroing
//     (the non-data categories of Figure 2),
//   - migratory and producer-consumer sharing (the cache-to-cache traffic
//     that keeps Barnes' and TPC-H's benefit small).
//
// Necessary broadcasts (the ones even an oracle must send) only arise from
// data that is resident in a *remote* cache at request time, i.e. from
// write-shared data that keeps getting invalidated and re-fetched:
// migratory objects, contended hot lines, and producer-consumer streams.
// Each benchmark's weights below balance those "bouncing" activities
// against private streaming, cold shared data, write-backs and I-fetches
// to land in the per-benchmark bands of Figures 2 and 7.

func seedFor(name string, p Params) *rng.Source {
	h := uint64(1469598103934665603)
	for _, c := range name {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return rng.New(p.Seed ^ h)
}

// layout carves the benchmark's address space. A fresh carve pointer per
// benchmark keeps workloads independent; the simulator only ever sees the
// addresses.
type layout struct{ next addr.Addr }

func (l *layout) seg(size, align uint64) addr.Segment {
	return addr.Carve(&l.next, size, align)
}

func (l *layout) perProc(n int, size, align uint64) []addr.Segment {
	segs := make([]addr.Segment, n)
	for i := range segs {
		segs[i] = l.seg(size, align)
	}
	return segs
}

const (
	kb = uint64(1) << 10
	mb = uint64(1) << 20
)

// chasing marks a record-access block as pointer-chasing (dependent use of
// every loaded line).
func chasing(ra *recordAccess) *recordAccess {
	ra.chase = true
	return ra
}

func init() {
	register(Info{
		Name: "ocean", Category: "Scientific",
		Comment: "SPLASH-2 Ocean: grid stencil sweeps over private partitions with nearest-neighbour boundary sharing",
		build:   buildOcean,
	})
	register(Info{
		Name: "raytrace", Category: "Scientific",
		Comment: "SPLASH-2 Raytrace: read-mostly shared scene, private ray state, contended work queue",
		build:   buildRaytrace,
	})
	register(Info{
		Name: "barnes", Category: "Scientific",
		Comment: "SPLASH-2 Barnes-Hut: migratory bodies, heavy cache-to-cache transfers",
		build:   buildBarnes,
	})
	register(Info{
		Name: "specint2000rate", Category: "Multiprogramming",
		Comment: "SPECint2000Rate: independent processes, fully private working sets",
		build:   buildSpecint,
	})
	register(Info{
		Name: "specweb99", Category: "Web",
		Comment: "SPECweb99: private connection state, shared file cache, kernel page zeroing",
		build:   buildSpecweb,
	})
	register(Info{
		Name: "specjbb2000", Category: "Web",
		Comment: "SPECjbb2000: per-warehouse Java heaps, allocation zeroing, small shared order book",
		build:   buildSpecjbb,
	})
	register(Info{
		Name: "tpc-w", Category: "Web",
		Comment: "TPC-W browsing mix (DB tier): large low-contention buffer pool, private sort areas",
		build:   buildTpcw,
	})
	register(Info{
		Name: "tpc-b", Category: "OLTP",
		Comment: "TPC-B: skewed account updates, contended branch/teller rows, private history/log",
		build:   buildTpcb,
	})
	register(Info{
		Name: "tpc-h", Category: "Decision Support",
		Comment: "TPC-H Q12: parallel scan phase, then merge phase with producer-consumer sharing",
		build:   buildTpch,
	})
}

// commonCode builds a code walker over a shared text segment.
func commonCode(l *layout, footprint, hotBody uint64, jumpProb, hotProb float64) func() codeWalker {
	code := l.seg(footprint, pageBytes)
	hot := addr.Segment{Base: code.Base, Size: hotBody}
	return func() codeWalker {
		return codeWalker{seg: code, hot: hot, jumpProb: jumpProb, hotProb: hotProb}
	}
}

func buildOcean(p Params) []Generator {
	master := seedFor("ocean", p)
	var l layout
	code := commonCode(&l, 192*kb, 16*kb, 0.08, 0.85)
	grids := l.perProc(p.Processors, 6*mb, pageBytes)
	// Boundary rows are written by their owner every sweep and read by the
	// neighbour: a small resident write-shared set.
	bounds := l.perProc(p.Processors, 16*kb, pageBytes)
	barrier := l.seg(4*kb, pageBytes)
	stacks := l.perProc(p.Processors, 32*kb, pageBytes)
	gens := make([]Generator, p.Processors)
	for i := range gens {
		r := master.Split()
		var nb []addr.Segment
		for _, d := range []int{-1, 1} {
			j := (i + d + p.Processors) % p.Processors
			if j != i {
				nb = append(nb, bounds[j])
			}
		}
		mix := []weighted{
			{&streamer{seg: grids[i], runLines: 24, storeProb: 0.3, accPerLn: 3}, 0.52},
			// Refresh our own boundary (stores) ...
			{&streamer{seg: bounds[i], runLines: 8, storeProb: 1.0, accPerLn: 1}, 0.07},
			// ... and read the neighbours' freshly written boundaries.
			{&boundaryShare{neighbours: nb, runLines: 8}, 0.30},
			{&hotLines{seg: barrier, nLines: 32, storeProb: 0.6, burst: 3}, 0.18},
			{&stackChurn{seg: stacks[i], depth: 48, burst: 10}, 3.60},
		}
		gens[i] = newEngine(r, p.OpsPerProc, 48.0, code(), []phase{{frac: 1, mix: mix}})
	}
	return gens
}

func buildRaytrace(p Params) []Generator {
	master := seedFor("raytrace", p)
	var l layout
	code := commonCode(&l, 384*kb, 24*kb, 0.10, 0.80)
	scene := l.seg(10*mb, pageBytes)
	// Distributed work queues: processors push/steal rays — write-shared.
	workq := l.seg(192*kb, pageBytes)
	rayArena := l.seg(uint64(p.Processors)*3*mb, pageBytes)
	frame := l.perProc(p.Processors, 2*mb, pageBytes)
	stacks := l.perProc(p.Processors, 32*kb, pageBytes)
	gens := make([]Generator, p.Processors)
	for i := range gens {
		r := master.Split()
		mix := []weighted{
			{newRecordAccess(scene, 512, 0.55, 0, true), 0.22},
			{newRecordAccess(workq, 128, 0.35, 0.85, false), 0.85},
			{newInterleavedPrivate(rayArena, i, p.Processors, 512, 0.5, 0.45), 0.22},
			{&streamer{seg: frame[i], runLines: 12, storeProb: 0.5, accPerLn: 1}, 0.08},
			{&stackChurn{seg: stacks[i], depth: 64, burst: 12}, 4.48},
		}
		gens[i] = newEngine(r, p.OpsPerProc, 42.0, code(), []phase{{frac: 1, mix: mix}})
	}
	return gens
}

func buildBarnes(p Params) []Generator {
	master := seedFor("barnes", p)
	var l layout
	code := commonCode(&l, 128*kb, 12*kb, 0.08, 0.85)
	bodies := l.seg(768*kb, pageBytes) // resident: bounces between caches
	tree := l.seg(512*kb, pageBytes)   // resident tree cells, updated in place
	priv := l.perProc(p.Processors, 768*kb, pageBytes)
	stacks := l.perProc(p.Processors, 32*kb, pageBytes)
	gens := make([]Generator, p.Processors)
	for i := range gens {
		r := master.Split()
		mix := []weighted{
			{&migratory{pool: bodies, objBytes: 256, objects: bodies.Size / 256}, 1.25},
			{newRecordAccess(tree, 128, 0.55, 0.5, false), 0.30},
			{&streamer{seg: priv[i], runLines: 8, storeProb: 0.4, accPerLn: 2}, 0.08},
			{&stackChurn{seg: stacks[i], depth: 64, burst: 12}, 5.60},
		}
		gens[i] = newEngine(r, p.OpsPerProc, 30.0, code(), []phase{{frac: 1, mix: mix}})
	}
	return gens
}

func buildSpecint(p Params) []Generator {
	master := seedFor("specint2000rate", p)
	var l layout
	code := commonCode(&l, 512*kb, 32*kb, 0.12, 0.75)
	heaps := l.perProc(p.Processors, 8*mb, pageBytes)
	work := l.perProc(p.Processors, 2*mb, pageBytes)
	stacks := l.perProc(p.Processors, 64*kb, pageBytes)
	// A sliver of OS-shared state (run queues, timekeeping) keeps the
	// oracle just under 100%, as in the paper's 94%.
	osHot := l.seg(8*kb, pageBytes)
	gens := make([]Generator, p.Processors)
	for i := range gens {
		r := master.Split()
		mix := []weighted{
			{&streamer{seg: heaps[i], runLines: 20, storeProb: 0.25, accPerLn: 2}, 0.40},
			{newRecordAccess(work[i], 256, 0.6, 0.5, true), 0.28},
			{&stackChurn{seg: stacks[i], depth: 96, burst: 12}, 3.24},
			{&hotLines{seg: osHot, nLines: 64, storeProb: 0.5, burst: 2}, 0.30},
		}
		gens[i] = newEngine(r, p.OpsPerProc, 40.0, code(), []phase{{frac: 1, mix: mix}})
	}
	return gens
}

func buildSpecweb(p Params) []Generator {
	master := seedFor("specweb99", p)
	var l layout
	code := commonCode(&l, 1*mb, 48*kb, 0.14, 0.70)
	fileCache := l.seg(12*mb, pageBytes)
	// Kernel structures shared by all server processes: socket tables,
	// scheduler queues, file-cache metadata.
	kernelHot := l.seg(96*kb, pageBytes)
	connArena := l.seg(uint64(p.Processors)*3*mb, pageBytes)
	pagePool := l.perProc(p.Processors, 6*mb, pageBytes)
	stacks := l.perProc(p.Processors, 32*kb, pageBytes)
	gens := make([]Generator, p.Processors)
	for i := range gens {
		r := master.Split()
		mix := []weighted{
			{newRecordAccess(fileCache, 4096, 0.35, 0, true), 0.20},
			{newInterleavedPrivate(connArena, i, p.Processors, 512, 0.7, 0.6), 0.26},
			{&pageZero{pool: pagePool[i], useFrac: 0.4}, 0.025},
			{newRecordAccess(kernelHot, 128, 0.4, 0.7, false), 1.00},
			{newEmbeddedLock(connArena, i, p.Processors, 0.45, 0.6), 0.26},
			{&stackChurn{seg: stacks[i], depth: 64, burst: 10}, 8.00},
		}
		gens[i] = newEngine(r, p.OpsPerProc, 26.0, code(), []phase{{frac: 1, mix: mix}})
	}
	return gens
}

func buildSpecjbb(p Params) []Generator {
	master := seedFor("specjbb2000", p)
	var l layout
	code := commonCode(&l, 768*kb, 64*kb, 0.15, 0.70)
	heapArena := l.seg(uint64(p.Processors)*6*mb, pageBytes)
	allocPool := l.perProc(p.Processors, 6*mb, pageBytes)
	orderBook := l.seg(128*kb, pageBytes)
	objArena := l.seg(6*mb, pageBytes)
	stacks := l.perProc(p.Processors, 32*kb, pageBytes)
	gens := make([]Generator, p.Processors)
	for i := range gens {
		r := master.Split()
		mix := []weighted{
			{newInterleavedPrivate(heapArena, i, p.Processors, 512, 0.7, 0.5), 0.40},
			{&pageZero{pool: allocPool[i], useFrac: 0.6}, 0.02},
			{newRecordAccess(orderBook, 128, 0.5, 0.75, false), 0.95},
			{newEmbeddedLock(objArena, i, p.Processors, 0.45, 0.6), 0.30},
			{&stackChurn{seg: stacks[i], depth: 96, burst: 12}, 7.84},
		}
		gens[i] = newEngine(r, p.OpsPerProc, 20.0, code(), []phase{{frac: 1, mix: mix}})
	}
	return gens
}

func buildTpcw(p Params) []Generator {
	master := seedFor("tpc-w", p)
	var l layout
	code := commonCode(&l, 1536*kb, 64*kb, 0.14, 0.72)
	bufferPool := l.seg(16*mb, pageBytes)
	sortAreas := l.perProc(p.Processors, 4*mb, pageBytes)
	sessArena := l.seg(uint64(p.Processors)*2*mb, pageBytes)
	latches := l.seg(24*kb, pageBytes)
	pageArena := l.seg(8*mb, pageBytes)
	stacks := l.perProc(p.Processors, 32*kb, pageBytes)
	gens := make([]Generator, p.Processors)
	for i := range gens {
		r := master.Split()
		mix := []weighted{
			// Browsing mix: large, low-skew read traffic over the buffer
			// pool — pages are rarely in another processor's cache, so the
			// opportunity (and CGCT's gain) is large.
			{chasing(newRecordAccess(bufferPool, 4096, 0.30, 0.04, true)), 0.30},
			{&streamer{seg: sortAreas[i], runLines: 20, storeProb: 0.4, accPerLn: 2}, 0.22},
			{newInterleavedPrivate(sessArena, i, p.Processors, 512, 0.7, 0.6), 0.12},
			{newRecordAccess(latches, 128, 0.4, 0.7, false), 0.12},
			{newEmbeddedLock(pageArena, i, p.Processors, 0.40, 0.5), 0.14},
			{&stackChurn{seg: stacks[i], depth: 64, burst: 10}, 3.30},
		}
		gens[i] = newEngine(r, p.OpsPerProc, 14.0, code(), []phase{{frac: 1, mix: mix}})
	}
	return gens
}

func buildTpcb(p Params) []Generator {
	master := seedFor("tpc-b", p)
	var l layout
	code := commonCode(&l, 1*mb, 48*kb, 0.14, 0.72)
	accounts := l.seg(12*mb, pageBytes)
	branches := l.seg(48*kb, pageBytes) // hot: few branches/tellers
	lockTable := l.seg(64*kb, pageBytes)
	history := l.perProc(p.Processors, 4*mb, pageBytes)
	workArena := l.seg(uint64(p.Processors)*1*mb, pageBytes)
	logBufs := l.perProc(p.Processors, 1*mb, pageBytes)
	stacks := l.perProc(p.Processors, 32*kb, pageBytes)
	gens := make([]Generator, p.Processors)
	for i := range gens {
		r := master.Split()
		mix := []weighted{
			// Account rows: uniformly spread updates — usually not cached
			// remotely (unnecessary broadcasts).
			{newRecordAccess(accounts, 256, 0.2, 0.9, false), 0.10},
			// Branch/teller rows: heavily contended migratory updates.
			{&migratory{pool: branches, objBytes: 128, objects: branches.Size / 128}, 1.80},
			{newRecordAccess(lockTable, 64, 0.4, 0.85, false), 0.55},
			{&streamer{seg: history[i], runLines: 8, storeProb: 0.95, accPerLn: 1}, 0.05},
			{newEmbeddedLock(workArena, i, p.Processors, 0.45, 0.6), 0.18},
			{&streamer{seg: logBufs[i], runLines: 8, storeProb: 1.0, accPerLn: 1}, 0.04},
			{&stackChurn{seg: stacks[i], depth: 64, burst: 12}, 8.20},
		}
		gens[i] = newEngine(r, p.OpsPerProc, 24.0, code(), []phase{{frac: 1, mix: mix}})
	}
	return gens
}

func buildTpch(p Params) []Generator {
	master := seedFor("tpc-h", p)
	var l layout
	code := commonCode(&l, 1*mb, 48*kb, 0.12, 0.75)
	tableParts := l.perProc(p.Processors, 8*mb, pageBytes)
	// Small, cache-resident merge partitions: records bounce between their
	// producer and the consumers.
	mergeParts := l.perProc(p.Processors, 256*kb, pageBytes)
	hashTable := l.seg(512*kb, pageBytes)
	aggregates := l.seg(16*kb, pageBytes)
	stacks := l.perProc(p.Processors, 32*kb, pageBytes)
	gens := make([]Generator, p.Processors)
	for i := range gens {
		r := master.Split()
		scan := []weighted{
			// Parallel phase: each process scans its own table partition.
			{&streamer{seg: tableParts[i], runLines: 20, storeProb: 0.05, accPerLn: 4}, 0.45},
			{&stackChurn{seg: stacks[i], depth: 48, burst: 8}, 7.20},
		}
		merge := []weighted{
			// Merge phase: heavy cache-to-cache traffic combining results.
			{newProducerConsumer(mergeParts, i, 256), 5.00},
			{newRecordAccess(hashTable, 128, 0.35, 0.75, false), 2.50},
			{&hotLines{seg: aggregates, nLines: 128, storeProb: 0.7, burst: 4}, 0.50},
			{&stackChurn{seg: stacks[i], depth: 48, burst: 8}, 4.32},
		}
		gens[i] = newEngine(r, p.OpsPerProc, 30.0, code(), []phase{
			{frac: 0.12, mix: scan},
			{frac: 0.88, mix: merge},
		})
	}
	return gens
}
