package directory

import (
	"slices"
	"testing"

	"cgct/internal/addr"
)

func TestFullMapSharerSet(t *testing.T) {
	d := New()
	defer d.Close()
	e := d.Acquire(addr.LineAddr(1))
	// The mask must track processors past 63 — a single uint64 silently
	// drops them (1<<id wraps to 0 for id >= 64).
	ids := []int{0, 5, 63, 64, 127}
	for _, id := range ids {
		e.AddSharer(id)
	}
	e.AddSharer(64) // duplicate: no change
	for _, id := range ids {
		if !e.Has(id) {
			t.Fatalf("sharer %d missing", id)
		}
	}
	if e.Has(1) || e.Has(65) {
		t.Fatal("sharer set holds a node never added")
	}
	e.RemoveSharer(64)
	if e.Has(64) || !e.Has(63) || !e.Has(127) {
		t.Fatal("RemoveSharer dropped the wrong node")
	}
	if e.Uncached() {
		t.Fatal("entry with sharers reported uncached")
	}
	if got := e.AppendNodes(nil, true); !slices.Equal(got, []int{0, 5, 63, 127}) {
		t.Fatalf("AppendNodes = %v, want the sharer set [0 5 63 127]", got)
	}
	e.ClearSharers()
	if !e.Uncached() || e.Has(0) || e.Has(127) {
		t.Fatal("ClearSharers left sharers behind")
	}
	e.Owner = 3
	if got := e.AppendNodes(nil, true); e.Uncached() || !slices.Equal(got, []int{3}) {
		t.Fatalf("an owned entry must be cached and record its owner (AppendNodes = %v)", got)
	}
}

// TestAppendNodesWalksOwnerAndSharers: AppendNodes lists the recorded
// nodes in ascending order across both mask words, adds the owner only
// when asked, leaves it out otherwise even when its sharer bit is set,
// and appends to what dst already holds.
func TestAppendNodesWalksOwnerAndSharers(t *testing.T) {
	d := New()
	defer d.Close()
	e := d.Acquire(addr.LineAddr(1))
	for _, id := range []int{127, 2, 64, 70} {
		e.AddSharer(id)
	}
	for _, tc := range []struct {
		owner     int
		withOwner bool
		want      []int
	}{
		{-1, true, []int{2, 64, 70, 127}},
		{-1, false, []int{2, 64, 70, 127}},
		{65, true, []int{2, 64, 65, 70, 127}},
		{65, false, []int{2, 64, 70, 127}},
		{0, true, []int{0, 2, 64, 70, 127}},
		{70, true, []int{2, 64, 70, 127}},
		{70, false, []int{2, 64, 127}},
	} {
		e.Owner = tc.owner
		got := e.AppendNodes([]int{-7}, tc.withOwner)
		if !slices.Equal(got, append([]int{-7}, tc.want...)) {
			t.Errorf("owner %d, withOwner %v: AppendNodes = %v, want [-7] then %v", tc.owner, tc.withOwner, got, tc.want)
		}
	}
}

func TestReleaseRetiresUncached(t *testing.T) {
	d := New()
	defer d.Close()
	e := d.Acquire(addr.LineAddr(7))
	if d.Acquire(addr.LineAddr(7)) != e || d.Lookup(addr.LineAddr(7)) != e {
		t.Fatal("a tracked line must map to one entry")
	}
	e.Owner = 2
	d.Release(e) // still owned: kept
	if d.Live() != 1 {
		t.Fatal("owned entry released")
	}
	e.Owner = -1
	d.Release(e)
	if d.Live() != 0 || d.Lookup(addr.LineAddr(7)) != nil {
		t.Fatalf("uncached entry kept: live=%d", d.Live())
	}
	// The recycled entry must come back clean.
	e.AddSharer(5)
	e2 := d.Acquire(addr.LineAddr(8))
	if e2 != e {
		t.Fatal("released entry was not recycled")
	}
	if e2.Owner != -1 || !e2.Uncached() || e2.Has(5) {
		t.Fatalf("recycled entry dirty: %+v", e2)
	}
	if d.Stats.Allocs != 2 || d.Stats.Peak != 1 {
		t.Fatalf("stats = %+v, want 2 allocations at peak 1", d.Stats)
	}
}

func TestAdmitSerialises(t *testing.T) {
	d := New()
	defer d.Close()
	if got := d.Admit(100, 20); got != 100 {
		t.Fatalf("idle admit at %d", got)
	}
	if got := d.Admit(105, 20); got != 120 {
		t.Fatalf("busy admit at %d, want 120", got)
	}
	if d.Stats.QueuedCycles != 15 {
		t.Fatalf("queued cycles = %d, want 15", d.Stats.QueuedCycles)
	}
}

func TestLiveEntriesGauge(t *testing.T) {
	before := LiveEntries()
	d := New()
	d.Acquire(addr.LineAddr(1))
	d.Acquire(addr.LineAddr(2))
	if got := LiveEntries(); got != before+2 {
		t.Fatalf("gauge = %d, want %d", got, before+2)
	}
	d.Close()
	if got := LiveEntries(); got != before {
		t.Fatalf("gauge after Close = %d, want %d", got, before)
	}
}
