package core

import (
	"slices"
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
	r.Allocate(reg, RegionCI)
	if e := r.Lookup(reg); e.State != RegionCI {
		t.Errorf("lookup = %+v", e)
	}
	if e := r.Probe(reg); e.State != RegionCI {
		t.Errorf("probe = %+v", e)
	}
	if r.Stats.Hits != 1 || r.Stats.Allocations != 1 {
		t.Errorf("stats = %+v", r.Stats)
	}
}

func TestAllocateUpdatesInPlace(t *testing.T) {
	r := testRCA()
	reg := regionInSet(2, 0)
	r.Allocate(reg, RegionCI)
	r.IncLineCount(reg, false)
	r.Allocate(reg, RegionDD)
	e := r.Probe(reg)
	if e.State != RegionDD {
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
	r.Allocate(a, RegionDI)
	r.IncLineCount(a, false) // a has cached lines
	r.Allocate(b, RegionCI)
	var victims []Entry
	r.OnEvict = func(e Entry) { victims = append(victims, e) }
	// b is empty; despite a being LRU, b must be the victim (§3.2).
	r.Allocate(c, RegionDI)
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
	r.Allocate(a, RegionDI)
	r.IncLineCount(a, false)
	r.Allocate(b, RegionDI)
	r.IncLineCount(b, false)
	r.Lookup(a) // refresh a; b becomes LRU
	r.Allocate(c, RegionCI)
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
	r.Allocate(a, RegionDI)
	r.Allocate(b, RegionCI)
	r.IncLineCount(b, false)
	fired := false
	r.OnEvict = func(e Entry) {
		fired = true
		if e.Region != a {
			t.Errorf("evicted %x, want %x", uint64(e.Region), uint64(a))
		}
		// The entry must still be probe-able during the flush.
		if !r.Probe(a).State.Valid() {
			t.Error("victim not installed during OnEvict")
		}
	}
	r.Allocate(c, RegionCI) // a is empty -> victim
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
	r.Allocate(reg, RegionDI)
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
	r.Allocate(reg, RegionDI)
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
	r.Allocate(reg, RegionDD) // in place: counts kept
	if e := r.Probe(reg); e.ModLines != 2 {
		t.Errorf("in-place allocation changed the modifiable count to %d", e.ModLines)
	}
	r.AdjustModLines(regionInSet(1, 5), true) // absent: tolerated

	r.SetState(reg, RegionInvalid)
	r.Allocate(reg, RegionCI)
	if e := r.Probe(reg); e.LineCount != 0 || e.ModLines != 0 {
		t.Errorf("after SetState(I): %d lines, %d modifiable", e.LineCount, e.ModLines)
	}

	// Eviction: evictWay clears the counts of the displaced way, which a
	// new region then reuses.
	r.IncLineCount(reg, true)
	other := regionInSet(1, 4)
	r.Allocate(other, RegionCI)
	r.IncLineCount(other, false)
	var victim Entry
	r.OnEvict = func(e Entry) { victim = e }
	r.Allocate(regionInSet(1, 6), RegionCI) // reg is LRU
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
			r.Allocate(reg, RegionCI)
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
	r.Allocate(reg, RegionCI)
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
	r.Allocate(reg, RegionDD)
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
	testRCA().Allocate(regionInSet(0, 0), RegionInvalid)
}

// TestAllocateAddressGuard checks that Allocate refuses an address that is
// not a region address below 2^addr.PhysAddrBits: a misaligned one would
// alias the state bits and one above addr.PhysAddrMask the tick bits.
func TestAllocateAddressGuard(t *testing.T) {
	for _, tc := range []struct {
		name   string
		region addr.RegionAddr
	}{
		{"misaligned", 4},
		{"above PhysAddrMask", addr.RegionAddr(addr.PhysAddrMask + 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("allocating %#x did not panic", uint64(tc.region))
				}
			}()
			testRCA().Allocate(tc.region, RegionCI)
		})
	}
}

// refRCA is the reference model of an RCA's contents and replacement: each
// way's entry beside a separate uint64 last-use tick that never runs out,
// and a fill that takes the first free way, else the way with the smallest
// tick among entries with no cached lines, else the way with the smallest
// tick.
type refRCA struct {
	sets, assoc int
	ways        []Entry
	lru         []uint64
	tick        uint64
}

func newRefRCA(sets, assoc int) *refRCA {
	return &refRCA{sets: sets, assoc: assoc, ways: make([]Entry, sets*assoc), lru: make([]uint64, sets*assoc)}
}

func (m *refRCA) base(region addr.RegionAddr) int { return int(uint64(region)/512) % m.sets * m.assoc }

func (m *refRCA) find(region addr.RegionAddr) int {
	for i := m.base(region); i < m.base(region)+m.assoc; i++ {
		if m.ways[i].State.Valid() && m.ways[i].Region == region {
			return i
		}
	}
	return -1
}

func (m *refRCA) touch(i int) {
	m.tick++
	m.lru[i] = m.tick
}

// allocate returns the entry the fill displaces, or the zero Entry.
func (m *refRCA) allocate(region addr.RegionAddr, st RegionState) Entry {
	if i := m.find(region); i >= 0 {
		m.ways[i].State = st
		m.touch(i)
		return Entry{}
	}
	free, emptyLRU, anyLRU := -1, -1, -1
	for i := m.base(region); i < m.base(region)+m.assoc; i++ {
		if !m.ways[i].State.Valid() {
			if free < 0 {
				free = i
			}
			continue
		}
		if m.ways[i].LineCount == 0 && (emptyLRU < 0 || m.lru[i] < m.lru[emptyLRU]) {
			emptyLRU = i
		}
		if anyLRU < 0 || m.lru[i] < m.lru[anyLRU] {
			anyLRU = i
		}
	}
	v := anyLRU
	if free >= 0 {
		v = free
	} else if emptyLRU >= 0 {
		v = emptyLRU
	}
	var victim Entry
	if m.ways[v].State.Valid() {
		victim = m.ways[v]
	}
	m.ways[v] = Entry{Region: region, State: st}
	m.touch(v)
	return victim
}

// TestLRUMatchesReference runs a seeded random sequence of every operation
// that reads or moves an entry on a 4-set, 4-way RCA and on refRCA, and
// requires the same returned entries and victims and the same ways after
// every step. The "renumbered" run starts the tick counter just below
// addr.TickMax, so the ticks are renumbered mid-sequence. The regions
// include region 0, whose address bits equal an invalid way's, and
// regions just below 2^addr.PhysAddrBits, whose high address bits sit next
// to the tick bits.
func TestLRUMatchesReference(t *testing.T) {
	const sets, assoc, steps = 4, 4, 20_000
	var regions []addr.RegionAddr
	for set := uint64(0); set < sets; set++ {
		for k := uint64(1); k <= 6; k++ {
			regions = append(regions,
				addr.RegionAddr(((k-1)*sets+set)*512),
				addr.RegionAddr(addr.PhysAddrMask+1-k*sets*512+set*512))
		}
	}
	valid := []RegionState{RegionCI, RegionCC, RegionCD, RegionDI, RegionDC, RegionDD}
	for _, start := range []struct {
		name string
		tick uint64
	}{{"fresh", 0}, {"renumbered", addr.TickMax - steps/8}} {
		t.Run(start.name, func(t *testing.T) {
			r := NewRCA(addr.MustGeometry(64, 512), sets, assoc)
			r.lruTick = start.tick
			var victim Entry
			r.OnEvict = func(e Entry) { victim = e }
			m := newRefRCA(sets, assoc)
			src := rng.New(3)
			for step := 0; step < steps; step++ {
				reg := regions[src.Uint64n(uint64(len(regions)))]
				st := valid[src.Uint64n(uint64(len(valid)))]
				i := m.find(reg)
				var prior Entry
				if i >= 0 {
					prior = m.ways[i]
				}
				var op string
				var got, want Entry
				switch src.Uint64n(6) {
				case 0:
					op, got, want = "Lookup", r.Lookup(reg), prior
					if i >= 0 {
						m.touch(i)
					}
				case 1:
					op, got, want = "Probe", r.Probe(reg), prior
				case 2, 3:
					op, victim = "Allocate", Entry{}
					r.Allocate(reg, st)
					got, want = victim, m.allocate(reg, st)
				case 4:
					if src.Uint64n(2) == 0 {
						st = RegionInvalid
					}
					op = "SetState"
					r.SetState(reg, st)
					if i >= 0 && st.Valid() {
						m.ways[i].State = st
					} else if i >= 0 {
						m.ways[i] = Entry{}
					}
				default:
					mod := src.Uint64n(2) == 0
					switch {
					case i < 0:
						op = "DecLineCount"
						r.DecLineCount(reg, false) // absent: tolerated
					case src.Uint64n(2) == 0 || prior.LineCount == 0:
						op = "IncLineCount"
						r.IncLineCount(reg, mod)
						m.ways[i].LineCount++
						if mod {
							m.ways[i].ModLines++
						}
					default:
						op = "DecLineCount"
						mod = prior.ModLines == prior.LineCount || prior.ModLines > 0 && mod
						r.DecLineCount(reg, mod)
						m.ways[i].LineCount--
						if mod {
							m.ways[i].ModLines--
						}
					}
				}
				if got != want {
					t.Fatalf("step %d: %s(%#x) gave %+v, reference %+v", step, op, uint64(reg), got, want)
				}
				var have, ref []Entry
				r.ForEachValid(func(e Entry) { have = append(have, e) })
				for _, e := range m.ways {
					if e.State.Valid() {
						ref = append(ref, e)
					}
				}
				if !slices.Equal(have, ref) {
					t.Fatalf("step %d: after %s(%#x) the RCA holds %+v, reference %+v", step, op, uint64(reg), have, ref)
				}
			}
			if start.tick > 0 && r.lruTick >= start.tick {
				t.Errorf("tick counter at %d never ran out", r.lruTick)
			}
		})
	}
}

func TestEvictionStats(t *testing.T) {
	r := testRCA()
	// Fill one set and overflow it repeatedly.
	for i := uint64(0); i < 6; i++ {
		reg := regionInSet(0, i)
		r.Allocate(reg, RegionCI)
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
	r.Allocate(regionInSet(0, 0), RegionCI)
	r.Allocate(regionInSet(1, 0), RegionDD)
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
		r.Allocate(random(), RegionCI)
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
		{"Allocate", batch(func(reg addr.RegionAddr) { r.Allocate(reg, RegionDI) })},
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

// TestReleasedRCAPanics: a second Release does nothing, every probe or
// update of a released RCA panics rather than read ways another RCA may
// now own, and a new RCA of the same geometry, which may reuse them,
// starts empty.
func TestReleasedRCAPanics(t *testing.T) {
	r := testRCA()
	reg := regionInSet(1, 1)
	r.Allocate(reg, RegionDD)
	r.IncLineCount(reg, true)
	r.Release()
	r.Release()
	for _, op := range []struct {
		name string
		do   func()
	}{
		{"Probe", func() { r.Probe(reg) }},
		{"Lookup", func() { r.Lookup(reg) }},
		{"Allocate", func() { r.Allocate(reg, RegionCI) }},
		{"SetState", func() { r.SetState(reg, RegionCC) }},
		{"IncLineCount", func() { r.IncLineCount(reg, false) }},
		{"DecLineCount", func() { r.DecLineCount(reg, false) }},
		{"AdjustModLines", func() { r.AdjustModLines(reg, false) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released RCA did not panic", op.name)
				}
			}()
			op.do()
		}()
	}
	if fresh := testRCA(); fresh.CountValid() != 0 || fresh.Probe(reg).State.Valid() {
		t.Error("an RCA built after Release holds entries")
	}
}
