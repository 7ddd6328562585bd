package cache

import (
	"slices"
	"testing"
	"testing/quick"

	"cgct/internal/addr"
	"cgct/internal/coherence"
	"cgct/internal/config"
	"cgct/internal/rng"
)

func small() *Cache { return New("t", 8*64*2, 2, 64) } // 8 sets, 2 ways

func line(set, tag uint64) addr.LineAddr {
	return addr.LineAddr((tag*8 + set) * 64)
}

func TestLookupMissOnEmpty(t *testing.T) {
	c := small()
	if st := c.Lookup(line(0, 0)); st != coherence.Invalid {
		t.Errorf("empty cache lookup = %v", st)
	}
	if c.CountValid() != 0 {
		t.Error("empty cache has valid lines")
	}
}

func TestAllocateAndLookup(t *testing.T) {
	c := small()
	l := line(3, 7)
	if ev := c.Allocate(l, coherence.Shared); ev.State.Valid() {
		t.Error("allocation into empty set evicted")
	}
	if st := c.Lookup(l); st != coherence.Shared {
		t.Errorf("lookup after allocate = %v", st)
	}
}

func TestAllocateUpdatesExisting(t *testing.T) {
	c := small()
	l := line(1, 1)
	c.Allocate(l, coherence.Shared)
	c.Allocate(l, coherence.Modified)
	if c.Lookup(l) != coherence.Modified {
		t.Error("re-allocation did not update state")
	}
	if c.CountValid() != 1 {
		t.Error("re-allocation duplicated the line")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	var hooked []Line
	c.OnEvict = func(l Line, wasEviction bool) {
		if !wasEviction {
			t.Errorf("capacity eviction of %x reported as an invalidation", uint64(l.Addr))
		}
		hooked = append(hooked, l)
	}
	a, b, d := line(2, 1), line(2, 2), line(2, 3)
	c.Allocate(a, coherence.Shared)
	c.Allocate(b, coherence.Modified)
	if len(hooked) != 0 {
		t.Errorf("allocation into free ways evicted %v", hooked)
	}
	c.Touch(a) // b is now LRU
	ev := c.Allocate(d, coherence.Shared)
	if ev != (Line{Addr: b, State: coherence.Modified}) {
		t.Errorf("evicted %+v, want %x in M", ev, uint64(b))
	}
	if len(hooked) != 1 || hooked[0] != ev {
		t.Errorf("OnEvict saw %+v, want exactly the victim %+v", hooked, ev)
	}
	if c.Lookup(a) == coherence.Invalid || c.Lookup(d) == coherence.Invalid {
		t.Error("survivors missing")
	}
	if c.Lookup(b) != coherence.Invalid {
		t.Error("victim still present")
	}
}

func TestEvictionHooksAndStats(t *testing.T) {
	c := small()
	var evictions, invals int
	c.OnEvict = func(l Line, wasEviction bool) {
		if wasEviction {
			evictions++
		} else {
			invals++
		}
	}
	var allocs int
	c.OnAllocate = func(Line) { allocs++ }
	a, b, d := line(5, 1), line(5, 2), line(5, 3)
	c.Allocate(a, coherence.Modified)
	c.Allocate(b, coherence.Shared)
	c.Allocate(d, coherence.Shared) // evicts a (dirty)
	c.Invalidate(b)
	if evictions != 1 || invals != 1 || allocs != 3 {
		t.Errorf("hooks: evictions=%d invals=%d allocs=%d", evictions, invals, allocs)
	}
	if c.Stats.Evictions != 1 || c.Stats.DirtyEvicts != 1 || c.Stats.Invals != 1 {
		t.Errorf("stats: %+v", c.Stats)
	}
}

func TestSetStateInvalidRemoves(t *testing.T) {
	c := small()
	l := line(0, 9)
	c.Allocate(l, coherence.Exclusive)
	c.SetState(l, coherence.Invalid)
	if c.Lookup(l) != coherence.Invalid {
		t.Error("SetState(I) did not remove the line")
	}
	// No-op on absent line.
	c.SetState(line(0, 10), coherence.Shared)
}

func TestInvalidateReturnsPrior(t *testing.T) {
	c := small()
	l := line(6, 4)
	if st := c.Invalidate(l); st != coherence.Invalid {
		t.Errorf("invalidate absent = %v", st)
	}
	c.Allocate(l, coherence.Owned)
	if st := c.Invalidate(l); st != coherence.Owned {
		t.Errorf("invalidate returned %v, want O", st)
	}
}

func TestAccessStats(t *testing.T) {
	c := small()
	l := line(7, 2)
	if c.Access(l).Valid() {
		t.Error("hit on absent line")
	}
	c.Allocate(l, coherence.Shared)
	if st := c.Access(l); st != coherence.Shared {
		t.Errorf("access to present line = %v, want S", st)
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestAllocateInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("allocating Invalid state did not panic")
		}
	}()
	small().Allocate(line(0, 0), coherence.Invalid)
}

// TestAllocateAddressGuard checks that Allocate refuses an address that is
// not a line address below 2^addr.PhysAddrBits: a misaligned one would
// alias the state bits and one above addr.PhysAddrMask the tick bits.
func TestAllocateAddressGuard(t *testing.T) {
	for _, tc := range []struct {
		name string
		l    addr.LineAddr
	}{
		{"misaligned", 4},
		{"above PhysAddrMask", addr.LineAddr(addr.PhysAddrMask + 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("allocating %#x did not panic", uint64(tc.l))
				}
			}()
			small().Allocate(tc.l, coherence.Shared)
		})
	}
}

// refCache is the reference model of a Cache's contents and replacement:
// each way's line beside a separate uint64 last-use tick that never runs
// out, and a fill that takes the first free way, else the way with the
// smallest tick.
type refCache struct {
	sets, assoc int
	ways        []Line
	lru         []uint64
	tick        uint64
}

func newRefCache(sets, assoc int) *refCache {
	return &refCache{sets: sets, assoc: assoc, ways: make([]Line, sets*assoc), lru: make([]uint64, sets*assoc)}
}

func (m *refCache) base(l addr.LineAddr) int { return int(uint64(l)/64) % m.sets * m.assoc }

func (m *refCache) find(l addr.LineAddr) int {
	for i := m.base(l); i < m.base(l)+m.assoc; i++ {
		if m.ways[i].State.Valid() && m.ways[i].Addr == l {
			return i
		}
	}
	return -1
}

func (m *refCache) touch(i int) {
	m.tick++
	m.lru[i] = m.tick
}

func (m *refCache) allocate(l addr.LineAddr, st coherence.LineState) Line {
	if i := m.find(l); i >= 0 {
		m.ways[i].State = st
		m.touch(i)
		return Line{}
	}
	slot := -1
	for i := m.base(l); i < m.base(l)+m.assoc; i++ {
		if !m.ways[i].State.Valid() {
			slot = i
			break
		}
		if slot < 0 || m.lru[i] < m.lru[slot] {
			slot = i
		}
	}
	var evicted Line
	if m.ways[slot].State.Valid() {
		evicted = m.ways[slot]
	}
	m.ways[slot] = Line{Addr: l, State: st}
	m.touch(slot)
	return evicted
}

// TestLRUMatchesReference runs a seeded random sequence of every operation
// that reads or moves a line on a 4-set, 4-way cache and on refCache, and
// requires the same returned states and evicted lines and the same ways
// after every step. The "renumbered" run starts the tick counter just
// below addr.TickMax, so the ticks are renumbered mid-sequence. The lines
// include line 0, whose address bits equal an invalid way's, and lines
// just below 2^addr.PhysAddrBits, whose high address bits sit next to the
// tick bits.
func TestLRUMatchesReference(t *testing.T) {
	const sets, assoc, steps = 4, 4, 20_000
	var lines []addr.LineAddr
	for set := uint64(0); set < sets; set++ {
		for k := uint64(1); k <= 6; k++ {
			lines = append(lines,
				addr.LineAddr(((k-1)*sets+set)*64),
				addr.LineAddr(addr.PhysAddrMask+1-k*sets*64+set*64))
		}
	}
	valid := []coherence.LineState{coherence.Shared, coherence.Exclusive, coherence.Owned, coherence.Modified}
	for _, start := range []struct {
		name string
		tick uint64
	}{{"fresh", 0}, {"renumbered", addr.TickMax - steps/8}} {
		t.Run(start.name, func(t *testing.T) {
			c := New("t", sets*assoc*64, assoc, 64)
			c.lruTick = start.tick
			m := newRefCache(sets, assoc)
			r := rng.New(3)
			for step := 0; step < steps; step++ {
				l := lines[r.Uint64n(uint64(len(lines)))]
				st := valid[r.Uint64n(uint64(len(valid)))]
				i := m.find(l)
				prior := coherence.Invalid
				if i >= 0 {
					prior = m.ways[i].State
				}
				var op string
				var got, want any
				switch r.Uint64n(7) {
				case 0:
					op, got, want = "Access", c.Access(l), prior
					if i >= 0 {
						m.touch(i)
					}
				case 1:
					op, got, want = "Lookup", c.Lookup(l), prior
				case 2, 3:
					op, got, want = "Allocate", c.Allocate(l, st), m.allocate(l, st)
				case 4:
					op = "Promote"
					c.Promote(l, st)
					if i >= 0 {
						m.ways[i].State = st
						m.touch(i)
					}
				case 5:
					if r.Uint64n(2) == 0 {
						st = coherence.Invalid
					}
					op = "SetState"
					c.SetState(l, st)
					if i >= 0 {
						m.ways[i].State = st
					}
				default:
					if r.Uint64n(2) == 0 {
						op, got, want = "Invalidate", c.Invalidate(l), prior
						if i >= 0 {
							m.ways[i] = Line{}
						}
					} else {
						op = "Touch"
						c.Touch(l)
						if i >= 0 {
							m.touch(i)
						}
					}
				}
				if got != want {
					t.Fatalf("step %d: %s(%#x) = %+v, reference %+v", step, op, uint64(l), got, want)
				}
				var have, ref []Line
				c.ForEachValid(func(l Line) { have = append(have, l) })
				for _, w := range m.ways {
					if w.State.Valid() {
						ref = append(ref, w)
					}
				}
				if !slices.Equal(have, ref) {
					t.Fatalf("step %d: after %s(%#x) the cache holds %+v, reference %+v", step, op, uint64(l), have, ref)
				}
			}
			if start.tick > 0 && c.lruTick >= start.tick {
				t.Errorf("tick counter at %d never ran out", c.lruTick)
			}
		})
	}
}

func TestRegionSnoop(t *testing.T) {
	c := New("t2", 1<<16, 2, 64)
	g := addr.MustGeometry(64, 512)
	r := g.Region(addr.Addr(0x10000))
	p, m := c.RegionSnoop(g, r)
	if p || m {
		t.Error("empty cache reports region presence")
	}
	c.Allocate(g.LineInRegion(r, 2), coherence.Shared)
	p, m = c.RegionSnoop(g, r)
	if !p || m {
		t.Errorf("shared line: present=%v modifiable=%v", p, m)
	}
	// Exclusive counts as modifiable-capable (silent E->M upgrades).
	c.Allocate(g.LineInRegion(r, 5), coherence.Exclusive)
	p, m = c.RegionSnoop(g, r)
	if !p || !m {
		t.Errorf("exclusive line: present=%v modifiable=%v", p, m)
	}
}

// TestNoDuplicateTagsProperty: after any sequence of allocations and
// invalidations, a set never holds two valid entries with the same address,
// and CountValid stays within capacity.
func TestNoDuplicateTagsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := small()
		for _, op := range ops {
			l := line(uint64(op)%8, uint64(op>>3)%16)
			switch op % 3 {
			case 0:
				c.Allocate(l, coherence.Shared)
			case 1:
				c.Allocate(l, coherence.Modified)
			default:
				c.Invalidate(l)
			}
		}
		// Check duplicates.
		seen := map[addr.LineAddr]int{}
		c.ForEachValid(func(l Line) { seen[l.Addr]++ })
		for _, n := range seen {
			if n > 1 {
				return false
			}
		}
		return c.CountValid() <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestConservationProperty: allocations - (evictions + invalidations) ==
// valid lines.
func TestConservationProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := small()
		allocs := 0
		c.OnAllocate = func(Line) { allocs++ }
		removed := 0
		c.OnEvict = func(Line, bool) { removed++ }
		for _, op := range ops {
			l := line(uint64(op)%8, uint64(op>>3)%16)
			if op%4 == 0 {
				c.Invalidate(l)
			} else if !c.Lookup(l).Valid() {
				c.Allocate(l, coherence.Shared)
			}
		}
		return allocs-removed == c.CountValid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// fullL2 returns an L2 of the default machine's geometry, warmed by filling
// it from random lines over four times its capacity, and a stream of 1<<16
// random lines over the same footprint (a mix of hits and misses).
func fullL2() (*Cache, []addr.LineAddr) {
	p := config.Default().L2
	c := New("l2", p.SizeBytes, p.Assoc, p.LineBytes)
	footprint := 4 * p.SizeBytes / p.LineBytes
	r := rng.New(1)
	random := func() addr.LineAddr { return addr.LineAddr(r.Uint64n(footprint) * p.LineBytes) }
	for i := uint64(0); i < 2*footprint; i++ {
		c.Allocate(random(), coherence.Shared)
	}
	lines := make([]addr.LineAddr, 1<<16)
	for i := range lines {
		lines[i] = random()
	}
	return c, lines
}

// TestProbesDoNotAllocate gates the hot path: on a warm cache, lookups,
// accesses and fills (with their evictions) allocate nothing. Each run
// covers 64 lines, hits and misses alike, because AllocsPerRun rounds the
// per-run average down.
func TestProbesDoNotAllocate(t *testing.T) {
	c, lines := fullL2()
	i := 0
	batch := func(f func(addr.LineAddr)) func() {
		return func() {
			for _, l := range lines[i : i+64] {
				f(l)
			}
			i = (i + 64) % len(lines)
		}
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Lookup", batch(func(l addr.LineAddr) { c.Lookup(l) })},
		{"Access", batch(func(l addr.LineAddr) { c.Access(l) })},
		{"Allocate", batch(func(l addr.LineAddr) { c.Allocate(l, coherence.Modified) })},
	} {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("Cache.%s allocates %v times per 64 calls", tc.name, n)
		}
	}
}

var stateSink coherence.LineState

func BenchmarkCacheLookup(b *testing.B) {
	c, lines := fullL2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stateSink = c.Lookup(lines[i&(len(lines)-1)])
	}
}
