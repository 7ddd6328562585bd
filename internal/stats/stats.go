// Package stats collects simulation statistics: request/route counters,
// the oracle's unnecessary-broadcast classification, the per-100K-cycle
// broadcast traffic windows used for Figure 10, and the run-time reduction
// metric of Figures 8 and 9. Aggregation across seeded runs (means and
// confidence intervals) lives with the experiments that report it.
package stats

import (
	"cgct/internal/coherence"
	"cgct/internal/event"
)

// Category buckets requests the way Figure 2 does.
type Category int

const (
	// CatData: ordinary reads and writes (including prefetches and
	// upgrades) for data.
	CatData Category = iota
	// CatWriteback: write-backs of dirty lines.
	CatWriteback
	// CatIFetch: instruction fetches.
	CatIFetch
	// CatDCB: data cache block operations (DCBZ/DCBF/DCBI).
	CatDCB
	// NCategories is the bucket count.
	NCategories
)

// String names the category as in Figure 2's legend.
func (c Category) String() string {
	switch c {
	case CatData:
		return "reads/writes"
	case CatWriteback:
		return "write-backs"
	case CatIFetch:
		return "ifetches"
	case CatDCB:
		return "DCB ops"
	default:
		return "unknown"
	}
}

// CategoryOf maps a request kind to its Figure 2 bucket.
func CategoryOf(k coherence.ReqKind) Category {
	switch k {
	case coherence.ReqWriteback:
		return CatWriteback
	case coherence.ReqIFetch:
		return CatIFetch
	case coherence.ReqDCBZ, coherence.ReqDCBF, coherence.ReqDCBI:
		return CatDCB
	default:
		return CatData
	}
}

// WindowCycles is the traffic-window width used by Figure 10.
const WindowCycles = 100_000

// MaxTrafficWindows caps how many distinct windows TrafficWindows tracks:
// 1<<20 windows × 100K cycles covers runs of ~10^11 cycles — far beyond
// any real workload — in at most 8 MiB. Anything later (a hostile or
// corrupt trace carrying a near-2^63 cycle) lands in the final overflow
// window instead of sizing an allocation off attacker-controlled input.
const MaxTrafficWindows = 1 << 20

// TrafficWindows tracks broadcasts per fixed-width cycle window.
type TrafficWindows struct {
	counts []uint64
	total  uint64
}

// Record notes one broadcast at cycle t. Storage grows geometrically to
// the window holding t (one op costs amortised O(1), not O(windows)), and
// cycles at or beyond MaxTrafficWindows windows share the final overflow
// bucket, so a single absurd cycle value cannot grow the slice unboundedly.
func (w *TrafficWindows) Record(t event.Cycle) {
	wi := uint64(t) / WindowCycles
	if wi >= MaxTrafficWindows {
		wi = MaxTrafficWindows - 1
	}
	idx := int(wi)
	if idx >= len(w.counts) {
		n := 2 * len(w.counts)
		if n < idx+1 {
			n = idx + 1
		}
		if n < 16 {
			n = 16
		}
		if n > MaxTrafficWindows {
			n = MaxTrafficWindows
		}
		grown := make([]uint64, n)
		copy(grown, w.counts)
		w.counts = grown
	}
	w.counts[idx]++
	w.total++
}

// Total returns the number of recorded broadcasts.
func (w *TrafficWindows) Total() uint64 { return w.total }

// Peak returns the largest broadcast count observed in any window.
func (w *TrafficWindows) Peak() uint64 {
	var peak uint64
	for _, c := range w.counts {
		if c > peak {
			peak = c
		}
	}
	return peak
}

// AvgPer100K returns the average broadcasts per 100K cycles over a run of
// the given length.
func (w *TrafficWindows) AvgPer100K(runCycles event.Cycle) float64 {
	if runCycles == 0 {
		return 0
	}
	return float64(w.total) / float64(runCycles) * WindowCycles
}

// Run aggregates everything measured in one simulation run.
type Run struct {
	Cycles       event.Cycle // run length
	Instructions uint64      // instructions retired (incl. memory ops)

	// Requests that reached the coherence fabric, bucketed by kind.
	Requests [coherence.NKinds]uint64
	// Routing outcome per kind.
	Broadcasts   [coherence.NKinds]uint64
	Directs      [coherence.NKinds]uint64
	LocalDones   [coherence.NKinds]uint64
	CacheToCache uint64 // broadcasts serviced by a remote cache

	// Oracle classification (recorded for every broadcast performed, or
	// on the directory fabric for every home transaction):
	// OracleUnnecessary[cat] counts those an oracle would have skipped;
	// OracleNecessary[cat] the rest.
	OracleUnnecessary [NCategories]uint64
	OracleNecessary   [NCategories]uint64

	// Traffic windows (Figure 10).
	Windows TrafficWindows

	// RegionProbes counts region-state prefetch broadcasts (§6 extension):
	// probes that fetch the global state of the next region ahead of a
	// sequential stream, without requesting any data.
	RegionProbes uint64

	// Directory-fabric message accounting.
	DirMessages uint64 // point-to-point coherence messages
	ThreeHops   uint64 // requester→home→owner→requester transfers
	// DirInvalidations counts explicit invalidation messages sent by a
	// home.
	DirInvalidations uint64
	// DirFastPaths counts transactions CGCT resolved without the home
	// pipeline (region-exclusive direct loads and write-backs);
	// DirRegionNotifies counts region-grant notification messages to
	// remote RCA holders on full home transactions.
	DirFastPaths      uint64
	DirRegionNotifies uint64
	// Directory storage behaviour (summed over homes; peak is the sum of
	// per-home peaks).
	DirEntriesAllocated uint64
	DirPeakEntries      uint64
	// DirQueuedCycles accumulates cycles transactions waited for a busy
	// home pipeline (the directory's serialization bottleneck).
	DirQueuedCycles uint64

	// SnoopTagLookups counts remote cache-tag lookups caused by
	// broadcasts (each broadcast probes every other processor's tags).
	// CGCT's avoided broadcasts avoid these lookups too — the power
	// saving Jetty (§2) targets directly.
	SnoopTagLookups uint64
	// SnoopTagFiltered counts remote tag lookups a broadcast *skipped*
	// because the snooped processor's RCA had no entry for the region —
	// inclusion guarantees it caches no lines of it (§6's tag-lookup
	// power saving).
	SnoopTagFiltered uint64

	// RegionScout accounting (zero unless enabled).
	NSRTInserts uint64 // regions learned globally unshared
	NSRTHits    uint64 // requests that skipped the snoop via the NSRT
	NSRTEvicted uint64 // entries killed by observed external requests

	// Memory-side latency accounting.
	DemandMissCycles uint64 // total stall cycles on demand misses
	DemandMisses     uint64

	// Memory-system activity (for the energy model).
	DRAMReads, DRAMWrites uint64
	DataTransfers         uint64

	// L2 behaviour.
	L2Hits, L2Misses uint64

	// RCA behaviour (zero in baseline runs).
	RCAHits, RCAMisses  uint64
	RCAEvictions        uint64
	RCAEvictedByCount   [4]uint64
	RCASelfInvals       uint64
	RCALineSumAtEvict   uint64
	RegionStateAtLookup [8]uint64 // distribution of region states seen by requests
}

// TotalRequests sums all request kinds.
func (r *Run) TotalRequests() uint64 {
	var t uint64
	for _, v := range r.Requests {
		t += v
	}
	return t
}

// TotalBroadcasts sums broadcasts over kinds.
func (r *Run) TotalBroadcasts() uint64 {
	var t uint64
	for _, v := range r.Broadcasts {
		t += v
	}
	return t
}

// TotalUnnecessary sums the oracle's unnecessary broadcasts (home
// transactions on the directory fabric).
func (r *Run) TotalUnnecessary() uint64 {
	var t uint64
	for _, v := range r.OracleUnnecessary {
		t += v
	}
	return t
}

// TotalNecessary sums the oracle's necessary broadcasts (home
// transactions on the directory fabric).
func (r *Run) TotalNecessary() uint64 {
	var t uint64
	for _, v := range r.OracleNecessary {
		t += v
	}
	return t
}

// AvgDemandMissLatency returns the mean demand-miss latency in cycles.
func (r *Run) AvgDemandMissLatency() float64 {
	if r.DemandMisses == 0 {
		return 0
	}
	return float64(r.DemandMissCycles) / float64(r.DemandMisses)
}

// SpeedupPct returns the percentage reduction in run time going from
// baseCycles to improvedCycles (positive = improved is faster), the metric
// of Figures 8/9, rounded as 100·(base−improved)/base in float64.
func SpeedupPct(baseCycles, improvedCycles uint64) float64 {
	if baseCycles == 0 {
		return 0
	}
	base := float64(baseCycles)
	return 100 * (base - float64(improvedCycles)) / base
}
