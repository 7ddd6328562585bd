package stats

import (
	"testing"

	"cgct/internal/coherence"
	"cgct/internal/event"
)

func TestCategoryOf(t *testing.T) {
	want := map[coherence.ReqKind]Category{
		coherence.ReqRead:         CatData,
		coherence.ReqReadExcl:     CatData,
		coherence.ReqUpgrade:      CatData,
		coherence.ReqPrefetch:     CatData,
		coherence.ReqPrefetchExcl: CatData,
		coherence.ReqWriteback:    CatWriteback,
		coherence.ReqIFetch:       CatIFetch,
		coherence.ReqDCBZ:         CatDCB,
		coherence.ReqDCBF:         CatDCB,
		coherence.ReqDCBI:         CatDCB,
	}
	for k, c := range want {
		if CategoryOf(k) != c {
			t.Errorf("CategoryOf(%v) = %v, want %v", k, CategoryOf(k), c)
		}
	}
}

func TestCategoryStrings(t *testing.T) {
	for c := Category(0); c < NCategories; c++ {
		if c.String() == "unknown" {
			t.Errorf("category %d has no name", c)
		}
	}
}

func TestTrafficWindows(t *testing.T) {
	var w TrafficWindows
	// 3 in window 0, 1 in window 2.
	w.Record(10)
	w.Record(50_000)
	w.Record(99_999)
	w.Record(250_000)
	if w.Total() != 4 {
		t.Errorf("total = %d", w.Total())
	}
	if w.Peak() != 3 {
		t.Errorf("peak = %d", w.Peak())
	}
	if got := w.AvgPer100K(400_000); got != 1 {
		t.Errorf("avg per 100K = %v, want 1", got)
	}
	if w.AvgPer100K(0) != 0 {
		t.Error("zero-length run must give zero rate")
	}
}

func TestRunTotals(t *testing.T) {
	var r Run
	r.Requests[coherence.ReqRead] = 10
	r.Requests[coherence.ReqWriteback] = 5
	r.Broadcasts[coherence.ReqRead] = 8
	r.OracleUnnecessary[CatData] = 6
	r.OracleUnnecessary[CatWriteback] = 1
	r.OracleNecessary[CatData] = 1
	if r.TotalRequests() != 15 || r.TotalBroadcasts() != 8 || r.TotalUnnecessary() != 7 || r.TotalNecessary() != 1 {
		t.Errorf("totals: %d/%d/%d/%d", r.TotalRequests(), r.TotalBroadcasts(), r.TotalUnnecessary(), r.TotalNecessary())
	}
	var empty Run
	if empty.AvgDemandMissLatency() != 0 {
		t.Error("empty run ratios should be 0")
	}
	r.DemandMisses = 4
	r.DemandMissCycles = 100
	if r.AvgDemandMissLatency() != 25 {
		t.Errorf("avg miss latency = %v", r.AvgDemandMissLatency())
	}
}

func TestSpeedupPct(t *testing.T) {
	if got := SpeedupPct(100, 90); got != 10 {
		t.Errorf("SpeedupPct = %v", got)
	}
	if got := SpeedupPct(100, 110); got != -10 {
		t.Errorf("negative speedup = %v", got)
	}
	if SpeedupPct(0, 50) != 0 {
		t.Error("zero baseline should yield 0")
	}
	// The figures' rounding: scale first, then divide.
	if got, want := SpeedupPct(3, 1), 100*2/3.0; got != want {
		t.Errorf("SpeedupPct(3, 1) = %.17g, want %.17g", got, want)
	}
}

func TestTrafficWindowsHugeCycle(t *testing.T) {
	// Regression: one op at an absurd cycle (a hostile or corrupt trace)
	// used to append one element per window up to the cycle — an unbounded
	// O(idx) allocation. It must now land in the capped overflow bucket.
	var w TrafficWindows
	w.Record(event.Cycle(1) << 62)
	if got := len(w.counts); got > MaxTrafficWindows {
		t.Fatalf("counts grew to %d windows, cap is %d", got, MaxTrafficWindows)
	}
	if w.Total() != 1 || w.Peak() != 1 {
		t.Fatalf("total = %d peak = %d, want 1/1", w.Total(), w.Peak())
	}
	// A second huge cycle shares the overflow bucket.
	w.Record(event.Cycle(uint64(MaxTrafficWindows) * WindowCycles))
	if w.Peak() != 2 {
		t.Fatalf("overflow bucket not shared: peak = %d, want 2", w.Peak())
	}
	// Normal recording still works alongside the overflow bucket.
	w.Record(0)
	w.Record(WindowCycles + 1)
	if w.Total() != 4 || w.counts[0] != 1 || w.counts[1] != 1 {
		t.Fatalf("normal windows broken: total=%d counts[0]=%d counts[1]=%d",
			w.Total(), w.counts[0], w.counts[1])
	}
}

func TestTrafficWindowsGeometricGrowth(t *testing.T) {
	var w TrafficWindows
	for i := 0; i < 100; i++ {
		w.Record(event.Cycle(i * WindowCycles))
	}
	// Growth is geometric: capacity may overshoot the highest window, but
	// never past the cap, and every recorded window holds its count.
	if len(w.counts) < 100 || len(w.counts) > MaxTrafficWindows {
		t.Fatalf("len(counts) = %d", len(w.counts))
	}
	for i := 0; i < 100; i++ {
		if w.counts[i] != 1 {
			t.Fatalf("window %d = %d, want 1", i, w.counts[i])
		}
	}
	if w.AvgPer100K(100*WindowCycles) != 1 {
		t.Fatalf("AvgPer100K = %v, want 1", w.AvgPer100K(100*WindowCycles))
	}
}
