package regionscout

import (
	"slices"
	"testing"

	"cgct/internal/addr"
	"cgct/internal/rng"
)

// TestCRHBankMatchesStandaloneCRHs: a seeded random sequence of line
// arrivals and departures on the three CRHs of a CRHBank and on three
// standalone CRHs gives the same Present answers, and Holders lists
// exactly the standalone CRHs that claim the region.
func TestCRHBankMatchesStandaloneCRHs(t *testing.T) {
	const n, counters = 3, 16
	b := NewCRHBank(n, counters, 512)
	defer b.Release()
	var refs []*CRH
	for i := 0; i < n; i++ {
		refs = append(refs, NewCRH(counters, 512))
	}
	var cached [n][]addr.RegionAddr // each CRH's lines, as regions
	src := rng.New(9)
	for step := 0; step < 10_000; step++ {
		i := int(src.Uint64n(n))
		r := region(src.Uint64n(64))
		if k := len(cached[i]); k > 0 && src.Uint64n(2) == 0 {
			j := int(src.Uint64n(uint64(k)))
			r = cached[i][j]
			cached[i] = slices.Delete(cached[i], j, j+1)
			b.CRH(i).Dec(r)
			refs[i].Dec(r)
		} else {
			cached[i] = append(cached[i], r)
			b.CRH(i).Inc(r)
			refs[i].Inc(r)
		}
		probe := region(src.Uint64n(64))
		var holders []int
		for j, ref := range refs {
			if ref.Present(probe) != b.CRH(j).Present(probe) {
				t.Fatalf("step %d: CRH %d Present(%#x) disagrees with its standalone copy", step, j, uint64(probe))
			}
			if ref.Present(probe) {
				holders = append(holders, j)
			}
		}
		if scan := b.Holders(probe, nil); !slices.Equal(scan, holders) {
			t.Fatalf("step %d: Holders(%#x) = %v, the standalone CRHs claim it at %v", step, uint64(probe), scan, holders)
		}
	}
}

// TestNSRTSetIndexWraps: the set index masks the region number, so
// regions a set count apart share a set and evict each other.
func TestNSRTSetIndexWraps(t *testing.T) {
	n := NewNSRT(8, 2, 512) // 4 sets
	for _, k := range []uint64{1, 5, 9} {
		n.Insert(region(k))
	}
	if n.Has(region(1)) || !n.Has(region(5)) || !n.Has(region(9)) {
		t.Error("regions 1, 5 and 9 do not share a 2-way set")
	}
	if n.CountValid() != 2 {
		t.Errorf("valid = %d, want 2", n.CountValid())
	}
}

// TestNSRTInsertReportsDisplaced: Insert names the region whose entry it
// displaces, and nothing when it fills a free way or refreshes an entry.
func TestNSRTInsertReportsDisplaced(t *testing.T) {
	n := NewNSRT(2, 2, 512) // single set
	for _, r := range []addr.RegionAddr{region(1), region(2), region(1)} {
		if d, ok := n.Insert(r); ok {
			t.Fatalf("Insert(%#x) displaced %#x from a set with room", uint64(r), uint64(d))
		}
	}
	if d, ok := n.Insert(region(3)); !ok || d != region(2) {
		t.Errorf("Insert into a full set displaced %#x (%v), want the LRU region %#x", uint64(d), ok, uint64(region(2)))
	}
}

// TestNSRTsHolderRecord: the record names the node whose table holds a
// region's live entry. A broadcast's Observe ends it at that node only
// when another node broadcast, and an Insert that displaces another
// region drops that region's record.
func TestNSRTsHolderRecord(t *testing.T) {
	m := NewNSRTs(3, 2, 2, 512) // one 2-way set per node
	a, b, c := region(1), region(2), region(3)
	m.Insert(1, a)
	if h, ok := m.Holder(a); !ok || h != 1 || !m.Table(1).Has(a) {
		t.Fatalf("after Insert(1, a): holder %d %v", h, ok)
	}
	m.Observe(1, a) // node 1's own broadcast keeps its entry
	if h, ok := m.Holder(a); !ok || h != 1 || !m.Table(1).Has(a) || m.Table(1).Evicted != 0 {
		t.Fatal("the holder's own broadcast ended its entry")
	}
	m.Observe(2, a)
	if _, ok := m.Holder(a); ok || m.Table(1).Has(a) || m.Table(1).Evicted != 1 {
		t.Fatal("another node's broadcast left the entry or its record")
	}
	m.Insert(0, a)
	m.Insert(0, b)
	m.Insert(0, c) // displaces a, the LRU entry
	if _, ok := m.Holder(a); ok || m.Table(0).Has(a) {
		t.Error("the displaced region kept its record")
	}
	for _, r := range []addr.RegionAddr{b, c} {
		if h, ok := m.Holder(r); !ok || h != 0 {
			t.Errorf("region %#x: holder %d %v, want node 0", uint64(r), h, ok)
		}
	}
	m.Observe(0, region(9)) // no entry anywhere: nothing happens
	if m.Table(0).Evicted+m.Table(1).Evicted+m.Table(2).Evicted != 1 {
		t.Error("Observe of an unrecorded region ended an entry")
	}
}
