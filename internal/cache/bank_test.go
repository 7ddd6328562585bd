package cache

import (
	"slices"
	"testing"

	"cgct/internal/addr"
	"cgct/internal/coherence"
	"cgct/internal/rng"
)

// TestBankMatchesStandaloneCaches runs a seeded random sequence of every
// operation that reads or moves a line on the three caches of a Bank and
// on three standalone caches of the same geometry, and requires the same
// results from both, the same contents in each pair after every step, and
// Holders to list exactly the standalone caches that hold the line. In the
// "renumbered" run cache 1's tick counter starts just below addr.TickMax,
// so its ticks are renumbered mid-sequence, which must leave the ways of
// its neighbours in the shared array alone.
func TestBankMatchesStandaloneCaches(t *testing.T) {
	const n, sets, assoc, steps = 3, 4, 2, 20_000
	var lines []addr.LineAddr
	for k := uint64(0); k < 3*sets; k++ {
		lines = append(lines, addr.LineAddr(k*64))
	}
	valid := []coherence.LineState{coherence.Shared, coherence.Exclusive, coherence.Owned, coherence.Modified}
	for _, start := range []struct {
		name string
		tick uint64
	}{{"fresh", 0}, {"renumbered", addr.TickMax - steps/16}} {
		t.Run(start.name, func(t *testing.T) {
			b := NewBank("l2", n, sets*assoc*64, assoc, 64)
			defer b.Release()
			var refs []*Cache
			for i := 0; i < n; i++ {
				refs = append(refs, New("ref", sets*assoc*64, assoc, 64))
			}
			b.caches[1].lruTick, refs[1].lruTick = start.tick, start.tick
			r := rng.New(5)
			for step := 0; step < steps; step++ {
				i := int(r.Uint64n(n))
				c, ref := b.caches[i], refs[i]
				l := lines[r.Uint64n(uint64(len(lines)))]
				st := valid[r.Uint64n(uint64(len(valid)))]
				var got, want any
				switch r.Uint64n(6) {
				case 0:
					got, want = c.Access(l), ref.Access(l)
				case 1, 2:
					got, want = c.Allocate(l, st), ref.Allocate(l, st)
				case 3:
					c.Promote(l, st)
					ref.Promote(l, st)
				case 4:
					got, want = c.Invalidate(l), ref.Invalidate(l)
				default:
					c.Touch(l)
					ref.Touch(l)
				}
				if got != want {
					t.Fatalf("step %d: cache %d on %#x gave %+v, standalone %+v", step, i, uint64(l), got, want)
				}
				var have, had []Line
				c.ForEachValid(func(l Line) { have = append(have, l) })
				ref.ForEachValid(func(l Line) { had = append(had, l) })
				if !slices.Equal(have, had) {
					t.Fatalf("step %d: cache %d holds %+v, standalone %+v", step, i, have, had)
				}
				var holders []Holder
				for j, ref := range refs {
					if st := ref.Lookup(l); st.Valid() {
						holders = append(holders, Holder{Index: j, State: st})
					}
				}
				if scan := b.Holders(l, nil); !slices.Equal(scan, holders) {
					t.Fatalf("step %d: Holders(%#x) = %+v, the standalone caches hold it at %+v", step, uint64(l), scan, holders)
				}
			}
			if start.tick > 0 && b.caches[1].lruTick >= start.tick {
				t.Errorf("cache 1's tick counter at %d never ran out", b.caches[1].lruTick)
			}
		})
	}
}

// TestSectoredBankHolders: a sectored bank answers Holders with one probe
// per cache, in cache order.
func TestSectoredBankHolders(t *testing.T) {
	b := NewSectoredBank("l2", 3, 8*512*2, 2, 64, 512)
	defer b.Release()
	l := sline(1, 1)
	b.Store(2).Allocate(l, coherence.Modified)
	b.Store(0).Allocate(l, coherence.Shared)
	b.Store(1).Allocate(l+64, coherence.Shared) // same sector, another line
	want := []Holder{{0, coherence.Shared}, {2, coherence.Modified}}
	if got := b.Holders(l, nil); !slices.Equal(got, want) {
		t.Errorf("Holders = %+v, want %+v", got, want)
	}
}

// TestReleasedBankPanics: a second Release does nothing, Release on one of
// the bank's caches leaves the bank alone, every probe of a released
// bank's cache panics, and a new bank of the same geometry, which may
// reuse the array, starts empty.
func TestReleasedBankPanics(t *testing.T) {
	build := func() *Bank { return NewBank("l2", 3, 8*64*2, 2, 64) }
	b := build()
	l := line(3, 1)
	b.caches[2].Allocate(l, coherence.Modified)
	b.caches[2].Release()
	if !b.caches[2].Lookup(l).Valid() {
		t.Fatal("releasing one cache of a bank dropped its lines")
	}
	b.Release()
	b.Release()
	for _, op := range []struct {
		name string
		do   func()
	}{
		{"Lookup", func() { b.caches[2].Lookup(l) }},
		{"Allocate", func() { b.caches[0].Allocate(l, coherence.Shared) }},
		{"Holders", func() { b.Holders(l, nil) }},
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
	if fresh := build(); fresh.caches[2].CountValid() != 0 || len(fresh.Holders(l, nil)) != 0 {
		t.Error("a bank built after Release holds lines")
	}
}
