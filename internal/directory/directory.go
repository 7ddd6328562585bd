// Package directory implements the home-node directory state for the
// directory coherence fabric: one Directory per memory controller, holding
// a full-map entry per cached line whose home that controller is. An entry
// keeps the line's owner and one presence bit per processor, so its sharer
// set is exact; storage is unbounded, and an entry retires as soon as no
// node holds its line.
//
// The package is purely bookkeeping — messages, latency and cache state
// changes stay in the simulator.
package directory

import (
	"math/bits"
	"sync/atomic"

	"cgct/internal/addr"
	"cgct/internal/config"
	"cgct/internal/event"
)

// maskWords sizes the full-map sharer bitmask to cover every processor a
// valid directory configuration can have; a plain uint64 would silently
// drop sharers above processor 63 (1<<id is 0 for id >= 64).
const maskWords = (config.MaxDirectoryProcessors + 63) / 64

// Entry is one line's directory state at its home controller.
type Entry struct {
	line addr.LineAddr

	// Owner is the node holding the line Exclusive/Modified, or -1.
	Owner int

	// mask is the exact sharer set.
	mask [maskWords]uint64

	// next chains recycled entries on the free list.
	next *Entry
}

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

// Directory is the per-home-controller directory.
type Directory struct {
	entries map[addr.LineAddr]*Entry
	free    *Entry // recycled entries (chained via next)

	// busyUntil serialises transactions at the home: the directory
	// pipeline handles one transaction per DirectoryLatency, and bursts
	// queue — the home-node bottleneck of directory protocols.
	busyUntil event.Cycle

	Stats Stats
}

// New builds the directory for one home controller.
func New() *Directory {
	return &Directory{entries: make(map[addr.LineAddr]*Entry)}
}

// Live returns the current live entry count.
func (d *Directory) Live() uint64 { return uint64(len(d.entries)) }

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

// Lookup returns the entry for line, or nil when the line is untracked.
func (d *Directory) Lookup(line addr.LineAddr) *Entry { return d.entries[line] }

// Acquire returns the entry for line, creating it if absent.
func (d *Directory) Acquire(line addr.LineAddr) *Entry {
	if e := d.entries[line]; e != nil {
		return e
	}
	e := d.free
	if e != nil {
		d.free = e.next
		*e = Entry{}
	} else {
		e = &Entry{}
	}
	e.line = line
	e.Owner = -1
	d.entries[line] = e
	d.Stats.Allocs++
	liveEntries.Add(1)
	if live := d.Live(); live > d.Stats.Peak {
		d.Stats.Peak = live
	}
	return e
}

// Release retires the entry when no node holds the line any more; call it
// after mutating an entry's sharer/owner state.
func (d *Directory) Release(e *Entry) {
	if !e.Uncached() {
		return
	}
	delete(d.entries, e.line)
	liveEntries.Add(^uint64(0))
	e.next = d.free
	d.free = e
}

// Close releases the directory's contribution to the process-wide live-
// entry gauge. The Directory must not be used afterwards.
func (d *Directory) Close() {
	// Add the two's complement of the live count (atomic-decrement idiom).
	liveEntries.Add(^uint64(len(d.entries)) + 1)
	d.entries = nil
}

// liveEntries is the process-wide live directory-entry count across every
// running simulation — the job server exposes it as a Prometheus gauge.
var liveEntries atomic.Uint64

// LiveEntries returns the process-wide live directory-entry count.
func LiveEntries() uint64 { return liveEntries.Load() }
