package cache

import (
	"testing"

	"cgct/internal/addr"
	"cgct/internal/coherence"
)

// 2 sets x 2 ways of 512B sectors (8 lines each).
func smallSectored() *Sectored { return NewSectored("st", 2*2*512, 2, 64, 512) }

func sline(sector, line uint64) addr.LineAddr {
	return addr.LineAddr(sector*512 + line*64)
}

func TestSectoredLookupAllocate(t *testing.T) {
	c := smallSectored()
	l := sline(0, 3)
	if c.Lookup(l) != coherence.Invalid {
		t.Error("empty sectored cache hit")
	}
	c.Allocate(l, coherence.Shared)
	if c.Lookup(l) != coherence.Shared {
		t.Error("allocated line missing")
	}
	// Sibling lines of the sector share the tag but are invalid.
	if c.Lookup(sline(0, 4)) != coherence.Invalid {
		t.Error("sibling line valid without allocation")
	}
	c.Allocate(sline(0, 4), coherence.Modified)
	if c.Lookup(sline(0, 4)) != coherence.Modified || c.Lookup(l) != coherence.Shared {
		t.Error("within-sector allocation broke sibling")
	}
	if c.CountValid() != 2 {
		t.Errorf("valid = %d", c.CountValid())
	}
}

func TestSectoredWholeSectorEviction(t *testing.T) {
	c := smallSectored()
	var evicted []addr.LineAddr
	var dirty int
	c.SetHooks(func(l Line, wasEviction bool) {
		if wasEviction {
			evicted = append(evicted, l.Addr)
			if l.State.Dirty() {
				dirty++
			}
		}
	}, nil, nil)
	// Fill both ways of set 0 (sectors 0 and 2 map to set 0; 512B sectors,
	// 2 sets: set = sector index % 2).
	c.Allocate(sline(0, 0), coherence.Modified)
	c.Allocate(sline(0, 1), coherence.Shared)
	c.Allocate(sline(2, 0), coherence.Shared)
	// A third sector in set 0 evicts the LRU sector wholesale.
	c.Touch(sline(2, 0))
	c.Allocate(sline(4, 0), coherence.Shared)
	if len(evicted) != 2 {
		t.Fatalf("evicted %d lines, want the whole 2-line sector", len(evicted))
	}
	if dirty != 1 {
		t.Errorf("dirty evictions = %d", dirty)
	}
	if c.Lookup(sline(0, 0)) != coherence.Invalid || c.Lookup(sline(0, 1)) != coherence.Invalid {
		t.Error("victim sector lines survive")
	}
}

func TestSectoredInvalidate(t *testing.T) {
	c := smallSectored()
	l := sline(1, 2)
	if c.Invalidate(l) != coherence.Invalid {
		t.Error("invalidate absent returned state")
	}
	c.Allocate(l, coherence.Owned)
	if c.Invalidate(l) != coherence.Owned {
		t.Error("prior state lost")
	}
	if c.BaseStats().Invals != 1 {
		t.Errorf("stats = %+v", *c.BaseStats())
	}
}

func TestSectoredSetState(t *testing.T) {
	c := smallSectored()
	l := sline(1, 0)
	c.SetState(l, coherence.Modified) // absent: no-op
	c.Allocate(l, coherence.Shared)
	c.SetState(l, coherence.Modified)
	if c.Lookup(l) != coherence.Modified {
		t.Error("SetState lost")
	}
	c.SetState(l, coherence.Invalid)
	if c.Lookup(l) != coherence.Invalid {
		t.Error("SetState(I) did not remove")
	}
}

func TestSectoredAccessStats(t *testing.T) {
	c := smallSectored()
	l := sline(3, 1)
	if c.AccessHit(l) {
		t.Error("hit on absent line")
	}
	c.Allocate(l, coherence.Shared)
	if !c.AccessHit(l) {
		t.Error("miss on present line")
	}
	// Sector present but line invalid is still a miss.
	if c.AccessHit(sline(3, 2)) {
		t.Error("sector-hit/line-miss counted as hit")
	}
	st := c.BaseStats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v", *st)
	}
}

func TestSectoredRegionSnoop(t *testing.T) {
	c := smallSectored()
	g := addr.MustGeometry(64, 512)
	r := g.Region(addr.Addr(sline(2, 0)))
	p, m := c.RegionSnoop(g, r)
	if p || m {
		t.Error("empty snoop positive")
	}
	c.Allocate(sline(2, 1), coherence.Exclusive)
	p, m = c.RegionSnoop(g, r)
	if !p || !m {
		t.Errorf("E line: present=%v modifiable=%v", p, m)
	}
}

func TestSectoredFragmentation(t *testing.T) {
	// The defining property: N single-line allocations to N different
	// sectors exhaust a sectored cache that a conventional cache of the
	// same capacity would hold easily.
	sec := NewSectored("frag", 4*512, 1, 64, 512) // 4 sectors capacity
	conv := New("conv", 4*512, 8, 64)             // 32 lines, enough ways for the sparse set
	var secEvicted, convEvicted int
	sec.SetHooks(func(Line, bool) { secEvicted++ }, nil, nil)
	conv.SetHooks(func(l Line, wasEviction bool) {
		if wasEviction {
			convEvicted++
		}
	}, nil, nil)
	for i := uint64(0); i < 8; i++ {
		sec.Allocate(sline(i, 0), coherence.Shared)
		conv.Allocate(sline(i, 0), coherence.Shared)
	}
	if secEvicted == 0 {
		t.Error("sectored cache absorbed sparse lines without fragmentation evictions")
	}
	if convEvicted != 0 {
		t.Errorf("conventional cache evicted %d of 8 sparse lines", convEvicted)
	}
}

// TestStateChangeObserver checks the third hook on both Store kinds: it
// fires once per change between two different valid states, through
// Allocate of a present line, Promote and SetState, and never for a fill,
// a same-state rewrite, an invalidation, an eviction or an absent line.
func TestStateChangeObserver(t *testing.T) {
	type change struct {
		l        addr.LineAddr
		from, to coherence.LineState
	}
	for _, tc := range []struct {
		name string
		c    Store
		// l and a sibling share a set (a sector); the fills then evict l.
		l, sibling addr.LineAddr
		fill       []addr.LineAddr
	}{
		{"cache", small(), line(3, 0), line(3, 1), []addr.LineAddr{line(3, 2), line(3, 3)}},
		{"sectored", smallSectored(), sline(1, 0), sline(1, 1), []addr.LineAddr{sline(3, 0), sline(5, 0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			var got []change
			c.SetHooks(nil, nil, func(l addr.LineAddr, from, to coherence.LineState) {
				got = append(got, change{l, from, to})
			})
			c.Promote(tc.l, coherence.Modified)  // absent
			c.SetState(tc.l, coherence.Modified) // absent
			c.Allocate(tc.l, coherence.Shared)   // fill
			c.Allocate(tc.l, coherence.Shared)   // same state
			c.Allocate(tc.l, coherence.Modified) // S→M
			c.Promote(tc.l, coherence.Modified)  // same state
			c.SetState(tc.l, coherence.Owned)    // M→O
			c.SetState(tc.l, coherence.Owned)    // same state
			c.Promote(tc.l, coherence.Modified)  // O→M
			c.Promote(tc.sibling, coherence.Modified)
			c.SetState(tc.sibling, coherence.Shared) // absent sibling
			c.Allocate(tc.sibling, coherence.Exclusive)
			c.SetState(tc.l, coherence.Invalid) // invalidation
			c.Invalidate(tc.sibling)
			c.Allocate(tc.l, coherence.Exclusive)
			for _, f := range tc.fill {
				c.Allocate(f, coherence.Shared)
			}
			if c.Lookup(tc.l).Valid() {
				t.Fatal("the fills did not evict l")
			}
			want := []change{
				{tc.l, coherence.Shared, coherence.Modified},
				{tc.l, coherence.Modified, coherence.Owned},
				{tc.l, coherence.Owned, coherence.Modified},
			}
			if len(got) != len(want) {
				t.Fatalf("observed %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("change %d = %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestReleasedStorePanics checks Release on both Store kinds: a second
// Release does nothing, every probe or update of a released store panics
// rather than read storage another cache may now own, and a new store of
// the same geometry, which may reuse that storage, starts empty.
func TestReleasedStorePanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() Store
		l     addr.LineAddr
	}{
		{"cache", func() Store { return small() }, line(3, 1)},
		{"sectored", func() Store { return smallSectored() }, sline(1, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build()
			c.Allocate(tc.l, coherence.Modified)
			c.Release()
			c.Release()
			for _, op := range []struct {
				name string
				do   func()
			}{
				{"Lookup", func() { c.Lookup(tc.l) }},
				{"AccessHit", func() { c.AccessHit(tc.l) }},
				{"Allocate", func() { c.Allocate(tc.l, coherence.Shared) }},
				{"SetState", func() { c.SetState(tc.l, coherence.Shared) }},
				{"Invalidate", func() { c.Invalidate(tc.l) }},
				{"Touch", func() { c.Touch(tc.l) }},
				{"Promote", func() { c.Promote(tc.l, coherence.Modified) }},
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s on a released store did not panic", op.name)
						}
					}()
					op.do()
				}()
			}
			if fresh := tc.build(); fresh.CountValid() != 0 || fresh.Lookup(tc.l).Valid() {
				t.Error("a store built after Release holds lines")
			}
		})
	}
}
