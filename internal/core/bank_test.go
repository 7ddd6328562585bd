package core

import (
	"slices"
	"testing"

	"cgct/internal/addr"
	"cgct/internal/rng"
)

// TestRCABankMatchesStandaloneRCAs runs a seeded random sequence of
// lookups, allocations, state changes and line-count updates on the three
// RCAs of an RCABank and on three standalone RCAs of the same geometry,
// and requires the same evictions and entries from both, the same
// contents in each pair after every step, and Holders to list exactly the
// standalone RCAs holding the region, with their entries. In the
// "renumbered" run RCA 1's ticks are renumbered mid-sequence, which must
// leave its neighbours' ways in the shared array alone.
func TestRCABankMatchesStandaloneRCAs(t *testing.T) {
	const n, sets, assoc, steps = 3, 4, 2, 20_000
	geom := addr.MustGeometry(64, 512)
	var regions []addr.RegionAddr
	for k := uint64(0); k < 3*sets; k++ {
		regions = append(regions, addr.RegionAddr(k*512))
	}
	valid := []RegionState{RegionCI, RegionCC, RegionCD, RegionDI, RegionDC, RegionDD}
	for _, start := range []struct {
		name string
		tick uint64
	}{{"fresh", 0}, {"renumbered", addr.TickMax - steps/16}} {
		t.Run(start.name, func(t *testing.T) {
			b := NewRCABank(geom, n, sets, assoc)
			defer b.Release()
			var refs []*RCA
			var evicted, refEvicted Entry
			for i := 0; i < n; i++ {
				refs = append(refs, NewRCA(geom, sets, assoc))
				b.RCA(i).OnEvict = func(e Entry) { evicted = e }
				refs[i].OnEvict = func(e Entry) { refEvicted = e }
			}
			b.RCA(1).lruTick, refs[1].lruTick = start.tick, start.tick
			src := rng.New(5)
			for step := 0; step < steps; step++ {
				i := int(src.Uint64n(n))
				r, ref := b.RCA(i), refs[i]
				reg := regions[src.Uint64n(uint64(len(regions)))]
				st := valid[src.Uint64n(uint64(len(valid)))]
				evicted, refEvicted = Entry{}, Entry{}
				var got, want Entry
				switch e := ref.Probe(reg); src.Uint64n(5) {
				case 0:
					got, want = r.Lookup(reg), ref.Lookup(reg)
				case 1, 2:
					r.Allocate(reg, st)
					ref.Allocate(reg, st)
					got, want = evicted, refEvicted
				case 3:
					if src.Uint64n(2) == 0 {
						st = RegionInvalid
					}
					r.SetState(reg, st)
					ref.SetState(reg, st)
				default:
					if e.State.Valid() && (e.LineCount == 0 || src.Uint64n(2) == 0) {
						mod := src.Uint64n(2) == 0
						r.IncLineCount(reg, mod)
						ref.IncLineCount(reg, mod)
					} else {
						mod := e.ModLines > 0
						r.DecLineCount(reg, mod)
						ref.DecLineCount(reg, mod)
					}
				}
				if got != want {
					t.Fatalf("step %d: RCA %d on %#x gave %+v, standalone %+v", step, i, uint64(reg), got, want)
				}
				var have, had []Entry
				r.ForEachValid(func(e Entry) { have = append(have, e) })
				ref.ForEachValid(func(e Entry) { had = append(had, e) })
				if !slices.Equal(have, had) {
					t.Fatalf("step %d: RCA %d holds %+v, standalone %+v", step, i, have, had)
				}
				var holders []Holder
				for j, ref := range refs {
					if e := ref.Probe(reg); e.State.Valid() {
						holders = append(holders, Holder{Index: j, Entry: e})
					}
				}
				if scan := b.Holders(reg, nil); !slices.Equal(scan, holders) {
					t.Fatalf("step %d: Holders(%#x) = %+v, the standalone RCAs hold %+v", step, uint64(reg), scan, holders)
				}
			}
			if start.tick > 0 && b.RCA(1).lruTick >= start.tick {
				t.Errorf("RCA 1's tick counter at %d never ran out", b.RCA(1).lruTick)
			}
		})
	}
}

// TestReleasedRCABankPanics: a second Release does nothing, Release on one
// of the bank's RCAs leaves the bank alone, every probe of a released
// bank's RCA panics, and a new bank of the same geometry, which may reuse
// the array, starts empty.
func TestReleasedRCABankPanics(t *testing.T) {
	build := func() *RCABank { return NewRCABank(addr.MustGeometry(64, 512), 3, 4, 2) }
	b := build()
	reg := regionInSet(1, 1)
	b.RCA(2).Allocate(reg, RegionDD)
	b.RCA(2).Release()
	if !b.RCA(2).Probe(reg).State.Valid() {
		t.Fatal("releasing one RCA of a bank dropped its entries")
	}
	b.Release()
	b.Release()
	for _, op := range []struct {
		name string
		do   func()
	}{
		{"Probe", func() { b.RCA(2).Probe(reg) }},
		{"Allocate", func() { b.RCA(0).Allocate(reg, RegionCI) }},
		{"Holders", func() { b.Holders(reg, nil) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released bank did not panic", op.name)
				}
			}()
			op.do()
		}()
	}
	if fresh := build(); fresh.RCA(2).CountValid() != 0 || len(fresh.Holders(reg, nil)) != 0 {
		t.Error("a bank built after Release holds entries")
	}
}
