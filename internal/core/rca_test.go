package core

import (
	"testing"

	"cgct/internal/addr"
	"cgct/internal/config"
	"cgct/internal/rng"
)

func testRCA() *RCA {
	return NewRCA(addr.MustGeometry(64, 512), 4, 2) // tiny: 4 sets, 2 ways
}

// regionInSet returns the i'th distinct region mapping to the given set.
func regionInSet(set, i uint64) addr.RegionAddr {
	return addr.RegionAddr((i*4 + set) * 512)
}

func TestLookupMiss(t *testing.T) {
	r := testRCA()
	if st := r.Lookup(regionInSet(0, 0)).State; st != RegionInvalid {
		t.Errorf("lookup on empty = %v", st)
	}
	if r.Stats.Misses != 1 {
		t.Errorf("misses = %d", r.Stats.Misses)
	}
}

func TestAllocateAndLookup(t *testing.T) {
	r := testRCA()
	reg := regionInSet(1, 0)
	r.Allocate(reg, RegionCI, 1)
	if e := r.Lookup(reg); e.State != RegionCI || e.MemCtrl != 1 {
		t.Errorf("lookup = %+v", e)
	}
	if e := r.Probe(reg); e.State != RegionCI || e.MemCtrl != 1 {
		t.Errorf("probe = %+v", e)
	}
	if r.Stats.Hits != 1 || r.Stats.Allocations != 1 {
		t.Errorf("stats = %+v", r.Stats)
	}
}

func TestAllocateUpdatesInPlace(t *testing.T) {
	r := testRCA()
	reg := regionInSet(2, 0)
	r.Allocate(reg, RegionCI, 0)
	r.IncLineCount(reg, false)
	r.Allocate(reg, RegionDD, 1)
	e := r.Probe(reg)
	if e.State != RegionDD || e.MemCtrl != 1 {
		t.Errorf("entry = %+v", e)
	}
	if e.LineCount != 1 {
		t.Error("re-allocation lost the line count")
	}
	if r.Stats.Allocations != 1 {
		t.Error("in-place update counted as allocation")
	}
}

func TestReplacementFavorsEmptyRegions(t *testing.T) {
	r := testRCA()
	a, b, c := regionInSet(0, 0), regionInSet(0, 1), regionInSet(0, 2)
	r.Allocate(a, RegionDI, 0)
	r.IncLineCount(a, false) // a has cached lines
	r.Allocate(b, RegionCI, 0)
	var victims []Entry
	r.OnEvict = func(e Entry) { victims = append(victims, e) }
	// b is empty; despite a being LRU, b must be the victim (§3.2).
	r.Allocate(c, RegionDI, 0)
	if len(victims) != 1 || victims[0].Region != b {
		t.Errorf("victims = %+v, want only empty region %x", victims, uint64(b))
	}
	if r.Probe(b).State.Valid() {
		t.Error("empty region survived")
	}
	if !r.Probe(a).State.Valid() {
		t.Error("non-empty region was evicted instead")
	}
	if r.Stats.EvictedByCount[0] != 1 {
		t.Errorf("eviction histogram = %+v", r.Stats.EvictedByCount)
	}
}

func TestReplacementFallsBackToLRU(t *testing.T) {
	r := testRCA()
	a, b, c := regionInSet(1, 0), regionInSet(1, 1), regionInSet(1, 2)
	r.Allocate(a, RegionDI, 0)
	r.IncLineCount(a, false)
	r.Allocate(b, RegionDI, 0)
	r.IncLineCount(b, false)
	r.Lookup(a) // refresh a; b becomes LRU
	r.Allocate(c, RegionCI, 0)
	if r.Probe(b).State.Valid() {
		t.Error("LRU non-empty region should have been evicted")
	}
	if r.Stats.EvictedByCount[1] != 1 {
		t.Errorf("eviction histogram = %+v", r.Stats.EvictedByCount)
	}
}

func TestOnEvictFiresWhileInstalled(t *testing.T) {
	r := testRCA()
	a, b, c := regionInSet(3, 0), regionInSet(3, 1), regionInSet(3, 2)
	r.Allocate(a, RegionDI, 2)
	r.Allocate(b, RegionCI, 0)
	r.IncLineCount(b, false)
	fired := false
	r.OnEvict = func(e Entry) {
		fired = true
		if e.Region != a {
			t.Errorf("evicted %x, want %x", uint64(e.Region), uint64(a))
		}
		if e.MemCtrl != 2 {
			t.Error("victim lost its controller ID")
		}
		// The entry must still be probe-able during the flush.
		if !r.Probe(a).State.Valid() {
			t.Error("victim not installed during OnEvict")
		}
	}
	r.Allocate(c, RegionCI, 0) // a is empty -> victim
	if !fired {
		t.Error("OnEvict did not fire")
	}
	if r.Probe(a).State.Valid() {
		t.Error("victim still present after eviction")
	}
}

func TestLineCountTracking(t *testing.T) {
	r := testRCA()
	reg := regionInSet(0, 3)
	r.Allocate(reg, RegionDI, 0)
	r.IncLineCount(reg, false)
	r.IncLineCount(reg, false)
	r.DecLineCount(reg, false)
	if e := r.Probe(reg); e.LineCount != 1 {
		t.Errorf("line count = %d", e.LineCount)
	}
	// Dec on a missing region is tolerated (mid-eviction).
	r.DecLineCount(regionInSet(0, 5), false)
}

// TestModLinesTracking follows the modifiable-line count through fills,
// departures and boundary crossings, and checks that it resets with the
// line count on eviction and on SetState(RegionInvalid).
func TestModLinesTracking(t *testing.T) {
	r := testRCA()
	reg := regionInSet(1, 3)
	r.Allocate(reg, RegionDI, 0)
	r.IncLineCount(reg, true)  // E or M fill
	r.IncLineCount(reg, true)  //
	r.IncLineCount(reg, false) // S fill
	r.DecLineCount(reg, true)  // a modifiable line leaves
	r.AdjustModLines(reg, false)
	r.AdjustModLines(reg, true)
	r.AdjustModLines(reg, true)
	if e := r.Probe(reg); e.LineCount != 2 || e.ModLines != 2 {
		t.Errorf("counts = %d lines, %d modifiable; want 2, 2", e.LineCount, e.ModLines)
	}
	r.Allocate(reg, RegionDD, 1) // in place: counts kept
	if e := r.Probe(reg); e.ModLines != 2 {
		t.Errorf("in-place allocation changed the modifiable count to %d", e.ModLines)
	}
	r.AdjustModLines(regionInSet(1, 5), true) // absent: tolerated

	r.SetState(reg, RegionInvalid)
	r.Allocate(reg, RegionCI, 0)
	if e := r.Probe(reg); e.LineCount != 0 || e.ModLines != 0 {
		t.Errorf("after SetState(I): %d lines, %d modifiable", e.LineCount, e.ModLines)
	}

	// Eviction: evictWay clears the counts of the displaced way, which a
	// new region then reuses.
	r.IncLineCount(reg, true)
	other := regionInSet(1, 4)
	r.Allocate(other, RegionCI, 0)
	r.IncLineCount(other, false)
	var victim Entry
	r.OnEvict = func(e Entry) { victim = e }
	r.Allocate(regionInSet(1, 6), RegionCI, 0) // reg is LRU
	if victim.Region != reg || victim.ModLines != 1 {
		t.Errorf("victim = %+v, want region %x with 1 modifiable line", victim, uint64(reg))
	}
	if e := r.Probe(regionInSet(1, 6)); e.LineCount != 0 || e.ModLines != 0 {
		t.Errorf("new entry inherited counts: %+v", e)
	}
}

func TestNegativeModLinesPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(r *RCA, reg addr.RegionAddr)
	}{
		{"dec", func(r *RCA, reg addr.RegionAddr) { r.DecLineCount(reg, true) }},
		{"adjust", func(r *RCA, reg addr.RegionAddr) { r.AdjustModLines(reg, false) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := testRCA()
			reg := regionInSet(0, 0)
			r.Allocate(reg, RegionCI, 0)
			r.IncLineCount(reg, false)
			defer func() {
				if recover() == nil {
					t.Error("negative modifiable-line count did not panic")
				}
			}()
			tc.fn(r, reg)
		})
	}
}

func TestIncLineCountWithoutEntryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("IncLineCount without entry did not panic (inclusion violation)")
		}
	}()
	testRCA().IncLineCount(regionInSet(0, 0), false)
}

func TestNegativeLineCountPanics(t *testing.T) {
	r := testRCA()
	reg := regionInSet(0, 0)
	r.Allocate(reg, RegionCI, 0)
	defer func() {
		if recover() == nil {
			t.Error("negative line count did not panic")
		}
	}()
	r.DecLineCount(reg, false)
}

func TestSetStateInvalidClears(t *testing.T) {
	r := testRCA()
	reg := regionInSet(2, 1)
	r.Allocate(reg, RegionDD, 0)
	r.SetState(reg, RegionInvalid)
	if r.Probe(reg).State.Valid() {
		t.Error("SetState(I) did not remove the entry")
	}
	// No-op when absent.
	r.SetState(regionInSet(2, 2), RegionCC)
}

func TestAllocateInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("allocating RegionInvalid did not panic")
		}
	}()
	testRCA().Allocate(regionInSet(0, 0), RegionInvalid, 0)
}

func TestEvictionStats(t *testing.T) {
	r := testRCA()
	// Fill one set and overflow it repeatedly.
	for i := uint64(0); i < 6; i++ {
		reg := regionInSet(0, i)
		r.Allocate(reg, RegionCI, 0)
	}
	if r.Stats.Evictions != 4 {
		t.Errorf("evictions = %d, want 4", r.Stats.Evictions)
	}
	if got := r.Stats.EmptyEvictFraction(); got != 1.0 {
		t.Errorf("empty fraction = %v, want 1.0", got)
	}
	if r.CountValid() != 2 {
		t.Errorf("valid = %d", r.CountValid())
	}
}

func TestForEachValid(t *testing.T) {
	r := testRCA()
	r.Allocate(regionInSet(0, 0), RegionCI, 0)
	r.Allocate(regionInSet(1, 0), RegionDD, 1)
	n := 0
	r.ForEachValid(func(Entry) { n++ })
	if n != 2 {
		t.Errorf("ForEachValid visited %d", n)
	}
}

func TestGeometryAccessors(t *testing.T) {
	r := testRCA()
	if r.Sets() != 4 || r.Assoc() != 2 || r.Entries() != 8 {
		t.Errorf("geometry accessors: %d/%d/%d", r.Sets(), r.Assoc(), r.Entries())
	}
	if r.Geometry().RegionBytes != 512 {
		t.Error("geometry lost")
	}
}

// fullRCA returns an RCA of the default CGCT machine's geometry, warmed by
// allocating random regions over four times its capacity, and a stream of
// 1<<16 random regions over the same footprint (a mix of hits and misses).
func fullRCA() (*RCA, []addr.RegionAddr) {
	p := config.Default().WithCGCT(512).RCA
	g := addr.MustGeometry(config.Default().L2.LineBytes, p.RegionBytes)
	r := NewRCA(g, p.Sets, p.Assoc)
	footprint := 4 * r.Entries()
	src := rng.New(1)
	random := func() addr.RegionAddr { return addr.RegionAddr(src.Uint64n(footprint) * p.RegionBytes) }
	for i := uint64(0); i < 2*footprint; i++ {
		r.Allocate(random(), RegionCI, 0)
	}
	regions := make([]addr.RegionAddr, 1<<16)
	for i := range regions {
		regions[i] = random()
	}
	return r, regions
}

// TestProbesDoNotAllocate gates the hot path: on a warm RCA, lookups,
// probes and allocations (with their evictions) allocate nothing — in
// particular the entries they return by value stay off the heap. Each run
// covers 64 regions, hits and misses alike, because AllocsPerRun rounds the
// per-run average down.
func TestProbesDoNotAllocate(t *testing.T) {
	r, regions := fullRCA()
	i := 0
	batch := func(f func(addr.RegionAddr)) func() {
		return func() {
			for _, reg := range regions[i : i+64] {
				f(reg)
			}
			i = (i + 64) % len(regions)
		}
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Lookup", batch(func(reg addr.RegionAddr) { r.Lookup(reg) })},
		{"Probe", batch(func(reg addr.RegionAddr) { r.Probe(reg) })},
		{"Allocate", batch(func(reg addr.RegionAddr) { r.Allocate(reg, RegionDI, 1) })},
	} {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("RCA.%s allocates %v times per 64 calls", tc.name, n)
		}
	}
}

var entrySink Entry

func BenchmarkRCAProbe(b *testing.B) {
	r, regions := fullRCA()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entrySink = r.Probe(regions[i&(len(regions)-1)])
	}
}
