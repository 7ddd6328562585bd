// Package directory implements the home-node directory state for the
// directory coherence fabric: one Directory per memory controller, holding
// a full-map record per cached line whose home that controller is. A
// record keeps the line's owner and one presence bit per processor, so its
// sharer set is exact; storage is unbounded, and a record retires as soon
// as no node holds its line.
//
// The package is purely bookkeeping — messages, latency and cache state
// changes stay in the simulator.
package directory

import (
	"math/bits"
	"sync/atomic"
	"unsafe"

	"cgct/internal/addr"
	"cgct/internal/config"
	"cgct/internal/event"
	"cgct/internal/recycle"
)

// maskWords sizes the full-map sharer bitmask to cover every processor a
// valid directory configuration can have; a plain uint64 would silently
// drop sharers above processor 63 (1<<id is 0 for id >= 64).
const maskWords = (config.MaxDirectoryProcessors + 63) / 64

// Entry is one line's directory state at its home controller: a 32-byte
// record held inline in the home's table, with no pointer for the garbage
// collector to scan.
type Entry struct {
	// key is the line address with liveKey set; 0 marks a free slot.
	key uint64

	// Owner is the node holding the line Exclusive/Modified, or -1.
	Owner int

	// mask is the exact sharer set.
	mask [maskWords]uint64
}

// liveKey marks an occupied slot's key, so that line 0 differs from a
// free (zeroed) slot. Line addresses stay below 1<<addr.PhysAddrBits.
const liveKey = 1 << 63

// Uncached reports whether no node holds the line (the entry is dead).
func (e *Entry) Uncached() bool { return e.Owner < 0 && e.mask == [maskWords]uint64{} }

// Has reports whether node id is in the sharer set.
func (e *Entry) Has(id int) bool {
	return e.mask[uint(id)/64]&(1<<(uint(id)%64)) != 0
}

// AddSharer records node id as a sharer.
func (e *Entry) AddSharer(id int) {
	e.mask[uint(id)/64] |= 1 << (uint(id) % 64)
}

// RemoveSharer drops node id from the sharer set.
func (e *Entry) RemoveSharer(id int) {
	e.mask[uint(id)/64] &^= 1 << (uint(id) % 64)
}

// ClearSharers resets the sharer set (after a full invalidation).
func (e *Entry) ClearSharers() { e.mask = [maskWords]uint64{} }

// AppendNodes appends to dst, in ascending order, the nodes the entry
// records: its sharers, with the owner added when withOwner is set and
// left out otherwise. It walks the set bits, so it costs one step per
// recorded node, not one per processor.
func (e *Entry) AppendNodes(dst []int, withOwner bool) []int {
	for w, m := range e.mask {
		if e.Owner >= 0 && e.Owner/64 == w {
			if bit := uint64(1) << (e.Owner % 64); withOwner {
				m |= bit
			} else {
				m &^= bit
			}
		}
		for ; m != 0; m &= m - 1 {
			dst = append(dst, w*64+bits.TrailingZeros64(m))
		}
	}
	return dst
}

// Stats counts one Directory's behaviour over a run.
type Stats struct {
	Allocs       uint64 // entries created
	QueuedCycles uint64 // cycles transactions waited for the home pipeline
	Peak         uint64 // peak live entries
}

// Directory is the per-home-controller directory. Its records sit in one
// open-addressed table (linear probing, a power-of-two slot count) that
// an Acquire doubles when it finds it three quarters full; a retired
// record's slot is refilled by shifting its probe run back, so the table
// keeps no tombstones.
//
// An *Entry points into the table: it stays valid until the next Acquire
// or Release on its Directory, either of which may move records.
type Directory struct {
	slots []Entry
	shift uint // 64 - log2(len(slots)), for the multiplicative hash
	live  int

	// busyUntil serialises transactions at the home: the directory
	// pipeline handles one transaction per DirectoryLatency, and bursts
	// queue — the home-node bottleneck of directory protocols.
	busyUntil event.Cycle

	Stats Stats
}

// minSlots is a new table's size: 2 KiB, grown by doubling.
const minSlots = 64

// tablePool recycles tables from closed directories into new ones and
// from each growth into the next directory that reaches that size.
var tablePool recycle.Pool[Entry]

// New builds the directory for one home controller. Its table may be one
// a closed directory handed back, zeroed.
func New() *Directory {
	d := &Directory{}
	d.setTable(tablePool.Get(minSlots))
	return d
}

// setTable installs an empty table of a power-of-two size.
func (d *Directory) setTable(slots []Entry) {
	d.slots = slots
	d.shift = 64 - uint(bits.Len(uint(len(slots))-1))
}

// Live returns the current live entry count.
func (d *Directory) Live() uint64 { return uint64(d.live) }

// Admit grants a transaction a home-pipeline slot at or after t and
// returns when the slot begins; the caller adds the pipeline occupancy.
func (d *Directory) Admit(t event.Cycle, occupancy uint64) event.Cycle {
	start := t
	if d.busyUntil > start {
		start = d.busyUntil
	}
	d.Stats.QueuedCycles += uint64(start - t)
	d.busyUntil = start + event.Cycle(occupancy)
	return start
}

// home returns the slot where key's probe run starts (Fibonacci hashing:
// line addresses share their low bits, the product's high bits do not).
func (d *Directory) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> d.shift)
}

// find returns the slot holding key and true, or the free slot ending
// key's probe run and false.
func (d *Directory) find(key uint64) (int, bool) {
	last := len(d.slots) - 1
	for i := d.home(key); ; i = (i + 1) & last {
		switch d.slots[i].key {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

// Lookup returns the entry for line, or nil when the line is untracked.
func (d *Directory) Lookup(line addr.LineAddr) *Entry {
	if i, ok := d.find(uint64(line) | liveKey); ok {
		return &d.slots[i]
	}
	return nil
}

// Acquire returns the entry for line, creating it if absent. A created
// entry is uncached: no owner, no sharers.
func (d *Directory) Acquire(line addr.LineAddr) *Entry {
	if d.live >= len(d.slots)/4*3 {
		d.grow()
	}
	key := uint64(line) | liveKey
	i, ok := d.find(key)
	if ok {
		return &d.slots[i]
	}
	e := &d.slots[i]
	*e = Entry{key: key, Owner: -1}
	d.live++
	d.Stats.Allocs++
	liveEntries.Add(1)
	if live := d.Live(); live > d.Stats.Peak {
		d.Stats.Peak = live
	}
	return e
}

// grow moves every record into a table twice the size and hands the old
// one back to the pool.
func (d *Directory) grow() {
	old := d.slots
	d.setTable(tablePool.Get(2 * len(old)))
	for _, e := range old {
		if e.key != 0 {
			i, _ := d.find(e.key)
			d.slots[i] = e
		}
	}
	tablePool.Put(old)
}

// Release retires the entry when no node holds the line any more; call it
// after mutating an entry's sharer/owner state. e must be an entry of d
// still valid under the Directory's rule.
func (d *Directory) Release(e *Entry) {
	if !e.Uncached() {
		return
	}
	i := d.slot(e)
	d.live--
	liveEntries.Add(^uint64(0))
	// Backward-shift deletion: walk the probe run after the freed slot
	// and move back each record whose home does not lie cyclically in
	// (hole, j], so every remaining record stays reachable from its home.
	last := len(d.slots) - 1
	for j := (i + 1) & last; d.slots[j].key != 0; j = (j + 1) & last {
		if h := d.home(d.slots[j].key); (j-h)&last >= (j-i)&last {
			d.slots[i] = d.slots[j]
			i = j
		}
	}
	d.slots[i] = Entry{}
}

// slot returns e's index in d's table, from its offset in the array, so
// that retiring a record the caller holds takes no probe.
func (d *Directory) slot(e *Entry) int {
	i := int((uintptr(unsafe.Pointer(e)) - uintptr(unsafe.Pointer(&d.slots[0]))) / unsafe.Sizeof(Entry{}))
	if i >= len(d.slots) || &d.slots[i] != e {
		panic("directory: Release of an entry not in the table (held across an Acquire or Release?)")
	}
	return i
}

// Close hands the table back to the pool and releases the directory's
// contribution to the process-wide live-entry gauge. The Directory and
// its entries must not be used afterwards.
func (d *Directory) Close() {
	// Add the two's complement of the live count (atomic-decrement idiom).
	liveEntries.Add(^uint64(d.live) + 1)
	d.live = 0
	if d.slots != nil {
		tablePool.Put(d.slots)
		d.slots = nil
	}
}

// liveEntries is the process-wide live directory-entry count across every
// running simulation — the job server exposes it as a Prometheus gauge.
var liveEntries atomic.Uint64

// LiveEntries returns the process-wide live directory-entry count.
func LiveEntries() uint64 { return liveEntries.Load() }
