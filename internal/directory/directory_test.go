package directory

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

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
	// A new entry must come back clean.
	e.AddSharer(5)
	e2 := d.Acquire(addr.LineAddr(8))
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

// TestTableMatchesMapModel drives random Acquire, Lookup and Release
// sequences against a plain map. The first phase grows the table from
// 64 slots past three doublings; the second retires most records and
// churns fresh lines through the freed slots, which must not grow the
// table again. Every step checks the records, Live and the gauge; the
// end checks Stats and that no retired line reads back.
func TestTableMatchesMapModel(t *testing.T) {
	type record struct {
		owner   int
		sharers []int
	}
	rng := rand.New(rand.NewSource(1))
	d := New()
	defer d.Close()
	gauge := LiveEntries()
	model := map[addr.LineAddr]record{}
	retired := map[addr.LineAddr]bool{}
	var allocs, peak uint64

	// Lines share their low bits, as line addresses do, and line 0 is
	// one of them: its key must differ from a free slot's.
	randomLine := func(span int) addr.LineAddr { return addr.LineAddr(rng.Intn(span) * 64) }
	same := func(e *Entry, r record) bool {
		for id := 0; id < 128; id++ {
			if e.Has(id) != slices.Contains(r.sharers, id) {
				return false
			}
		}
		return e.Owner == r.owner
	}
	acquire := func(line addr.LineAddr) {
		r, tracked := model[line]
		e := d.Acquire(line)
		if !tracked {
			if e.Owner != -1 || !e.Uncached() || len(e.AppendNodes(nil, true)) != 0 {
				t.Fatalf("fresh record for line %#x is dirty: owner %d, nodes %v", line, e.Owner, e.AppendNodes(nil, true))
			}
			allocs++
			r = record{owner: -1}
		} else if !same(e, r) {
			t.Fatalf("line %#x: Acquire found owner %d sharers %v, want %+v", line, e.Owner, e.AppendNodes(nil, false), r)
		}
		// Grant the line to someone, as every home transaction does.
		if id := rng.Intn(128); rng.Intn(2) == 0 {
			e.Owner, r.owner = id, id
			e.ClearSharers()
			r.sharers = nil
		} else if !slices.Contains(r.sharers, id) {
			e.AddSharer(id)
			r.sharers = append(r.sharers, id)
			slices.Sort(r.sharers)
		}
		model[line] = r
		delete(retired, line)
		peak = max(peak, uint64(len(model)))
	}
	// release drops every node from a tracked line's record, or all but
	// one, and releases it.
	release := func(line addr.LineAddr) {
		e := d.Lookup(line)
		if !same(e, model[line]) {
			t.Fatalf("line %#x: Lookup found owner %d sharers %v, want %+v", line, e.Owner, e.AppendNodes(nil, false), model[line])
		}
		keep := rng.Intn(4) == 0 && len(model[line].sharers) > 0
		e.Owner = -1
		e.ClearSharers()
		if keep {
			e.AddSharer(model[line].sharers[0])
			model[line] = record{owner: -1, sharers: model[line].sharers[:1]}
		}
		d.Release(e)
		if !keep {
			delete(model, line)
			retired[line] = true
		}
	}
	trackedLine := func() addr.LineAddr {
		for line := range model {
			return line
		}
		panic("empty model")
	}
	check := func(step int) {
		if d.Live() != uint64(len(model)) || LiveEntries() != gauge+uint64(len(model)) {
			t.Fatalf("step %d: Live %d, gauge %d, want %d live", step, d.Live(), LiveEntries()-gauge, len(model))
		}
		line := randomLine(4096)
		e := d.Lookup(line)
		if r, tracked := model[line]; tracked != (e != nil) || tracked && !same(e, r) {
			t.Fatalf("step %d: Lookup(%#x) = %v, model %+v (tracked %v)", step, line, e, r, tracked)
		}
	}

	step := 0
	for len(model) < 800 {
		if rng.Intn(5) == 0 && len(model) > 0 {
			release(trackedLine())
		} else {
			acquire(randomLine(4096))
		}
		check(step)
		step++
	}
	if len(d.slots) < minSlots<<3 {
		t.Fatalf("table has %d slots after %d live records: fewer than three growths", len(d.slots), len(model))
	}
	for len(model) > 50 {
		release(trackedLine())
		check(step)
		step++
	}
	size := len(d.slots)
	for i := 0; i < 20_000; i++ {
		if len(model) >= 100 || rng.Intn(2) == 0 && len(model) > 0 {
			release(trackedLine())
		} else {
			acquire(randomLine(1 << 20))
		}
		check(step)
		step++
	}
	if len(d.slots) != size {
		t.Fatalf("churn at under 100 live records grew the table from %d to %d slots", size, len(d.slots))
	}

	if d.Stats.Allocs != allocs || d.Stats.Peak != peak {
		t.Fatalf("stats = %+v, want %d allocations at peak %d", d.Stats, allocs, peak)
	}
	for line := range retired {
		if d.Lookup(line) != nil {
			t.Fatalf("retired line %#x still has a record", line)
		}
	}
	for line, r := range model {
		if e := d.Lookup(line); e == nil || !same(e, r) {
			t.Fatalf("line %#x: record %v, want %+v", line, e, r)
		}
	}
}

// TestEntryIs32Bytes: a record is the line key, the owner and the
// two-word sharer mask, with nothing else.
func TestEntryIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n != 32 {
		t.Fatalf("Entry is %d bytes, want 32", n)
	}
}

// TestReleaseOfMovedEntryPanics: an entry held across the growth that
// moved it is no longer in the table, and releasing it panics instead of
// retiring whatever record now sits at its old offset.
func TestReleaseOfMovedEntryPanics(t *testing.T) {
	d := New()
	defer d.Close()
	stale := d.Acquire(addr.LineAddr(0))
	for i := 1; i <= minSlots; i++ {
		d.Acquire(addr.LineAddr(i * 64))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Release of an entry from before a growth did not panic")
		}
	}()
	d.Release(stale)
}
