// Package directory implements the home-node directory state for the
// directory coherence fabric: one Directory per memory controller, holding
// a sharer-tracking entry per cached line whose home that controller is.
//
// Two sharer-tracking schemes are supported. The full map keeps one
// presence bit per processor (exact, storage grows with the machine). The
// limited-pointer scheme (Dir_i-B) keeps up to i exact pointers; when an
// i+1-th sharer appears the entry overflows to a broadcast bit and later
// invalidations must go to every node. Entry storage may be bounded
// (a sparse directory): allocating past the bound evicts the least-
// recently-used entry, whose cached copies the caller must invalidate.
//
// The package is purely bookkeeping — messages, latency and cache state
// changes stay in the simulator. Everything here is deterministic: entry
// iteration order is the LRU list, never a map walk.
package directory

import (
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

	// mask is the exact sharer set (full map, or the limited pointers
	// while precise). count caches its population.
	mask  [maskWords]uint64
	count int

	// Overflowed marks a limited-pointer entry that lost precision: more
	// sharers appeared than pointers exist, so the sharer set is a
	// conservative "maybe anyone" and invalidations must broadcast.
	Overflowed bool

	// LRU list links (most-recently-used at the front).
	prev, next *Entry
}

// Line returns the line this entry tracks.
func (e *Entry) Line() addr.LineAddr { return e.line }

// Uncached reports whether no node holds the line (the entry is dead).
// An overflowed entry is never considered uncached — the precise set is
// lost, so only a full invalidation can retire it.
func (e *Entry) Uncached() bool { return e.Owner < 0 && e.count == 0 && !e.Overflowed }

// Has reports whether node id is in the (precise) sharer set.
func (e *Entry) Has(id int) bool {
	return e.mask[uint(id)/64]&(1<<(uint(id)%64)) != 0
}

// Sharers returns the number of precise sharers recorded.
func (e *Entry) Sharers() int { return e.count }

// AddSharer records node id as a sharer. Under the limited-pointer scheme
// (pointers > 0) the entry overflows when a new sharer would exceed the
// pointer budget; the return value reports whether this call overflowed
// the entry. Overflowed entries stop tracking precisely.
func (e *Entry) AddSharer(id, pointers int) (overflowed bool) {
	if e.Overflowed {
		return false
	}
	if e.Has(id) {
		return false
	}
	if pointers > 0 && e.count >= pointers {
		e.Overflowed = true
		e.mask = [maskWords]uint64{}
		e.count = 0
		return true
	}
	e.mask[uint(id)/64] |= 1 << (uint(id) % 64)
	e.count++
	return false
}

// RemoveSharer drops node id from the precise sharer set (no-op when
// overflowed — precision is already lost).
func (e *Entry) RemoveSharer(id int) {
	if e.Overflowed || !e.Has(id) {
		return
	}
	e.mask[uint(id)/64] &^= 1 << (uint(id) % 64)
	e.count--
}

// ClearSharers resets the sharer set (after a full invalidation), which
// also restores precision to an overflowed entry.
func (e *Entry) ClearSharers() {
	e.mask = [maskWords]uint64{}
	e.count = 0
	e.Overflowed = false
}

// MustInvalidate reports whether node id must receive an invalidation:
// precise sharers get one exactly; an overflowed entry invalidates
// everyone.
func (e *Entry) MustInvalidate(id int) bool {
	return e.Overflowed || e.Has(id) || e.Owner == id
}

// Stats counts one Directory's behaviour over a run.
type Stats struct {
	Allocs       uint64 // entries created
	Drops        uint64 // entries retired because no node held the line
	Evictions    uint64 // entries evicted by the sparse-storage bound
	PtrOverflows uint64 // limited-pointer entries that lost precision
	QueuedCycles uint64 // cycles transactions waited for the home pipeline
	Peak         uint64 // peak live entries
}

// Directory is the per-home-controller directory.
type Directory struct {
	home     int
	pointers int    // 0 = full map
	maxEnt   uint64 // 0 = unbounded

	entries map[addr.LineAddr]*Entry
	// LRU list sentinel: lru.next is most recent, lru.prev the victim.
	lru  Entry
	free *Entry // recycled entries (chained via next)
	// retired holds the last capacity-eviction victim: its state stays
	// readable until the next Acquire, when it joins the free list.
	retired *Entry

	// busyUntil serialises transactions at the home: the directory
	// pipeline handles one transaction per DirectoryLatency, and bursts
	// queue — the home-node bottleneck of directory protocols.
	busyUntil event.Cycle

	Stats Stats
}

// New builds the directory for one home controller.
func New(home int, p config.DirectoryParams) *Directory {
	d := &Directory{
		home:    home,
		maxEnt:  p.MaxEntriesPerHome,
		entries: make(map[addr.LineAddr]*Entry),
	}
	if p.Limited() {
		d.pointers = p.Pointers
	}
	d.lru.next = &d.lru
	d.lru.prev = &d.lru
	return d
}

// Home returns the home-controller index.
func (d *Directory) Home() int { return d.home }

// Pointers returns the limited-pointer budget (0 = full map).
func (d *Directory) Pointers() int { return d.pointers }

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

// Lookup returns the entry for line (touching it in the LRU order), or
// nil when the line is untracked.
func (d *Directory) Lookup(line addr.LineAddr) *Entry {
	e := d.entries[line]
	if e != nil {
		d.touch(e)
	}
	return e
}

// Peek returns the entry for line without touching the LRU order (for
// read-only paths like invariant checkers).
func (d *Directory) Peek(line addr.LineAddr) *Entry { return d.entries[line] }

// Acquire returns the entry for line, creating it if absent. When
// creation would exceed the sparse-storage bound, the least-recently-used
// entry is evicted and returned as victim: the caller must invalidate its
// cached copies (the entry's state is valid until the next Acquire).
func (d *Directory) Acquire(line addr.LineAddr) (e, victim *Entry) {
	if e = d.entries[line]; e != nil {
		d.touch(e)
		return e, nil
	}
	if d.retired != nil {
		d.recycle(d.retired)
		d.retired = nil
	}
	if d.maxEnt != 0 && uint64(len(d.entries)) >= d.maxEnt {
		victim = d.lru.prev
		d.unlink(victim)
		d.retired = victim
		d.Stats.Evictions++
	}
	e = d.alloc(line)
	d.entries[line] = e
	d.pushFront(e)
	d.Stats.Allocs++
	liveEntries.Add(1)
	if live := d.Live(); live > d.Stats.Peak {
		d.Stats.Peak = live
	}
	return e, victim
}

// Release retires the entry when no node holds the line any more; call it
// after mutating an entry's sharer/owner state.
func (d *Directory) Release(e *Entry) {
	if !e.Uncached() {
		return
	}
	d.unlink(e)
	d.recycle(e)
	d.Stats.Drops++
}

// Close releases the directory's contribution to the process-wide live-
// entry gauge. The Directory must not be used afterwards.
func (d *Directory) Close() {
	// Add the two's complement of the live count (atomic-decrement idiom).
	liveEntries.Add(^uint64(len(d.entries)) + 1)
	d.entries = nil
}

// alloc takes an Entry from the free list or the heap.
func (d *Directory) alloc(line addr.LineAddr) *Entry {
	e := d.free
	if e != nil {
		d.free = e.next
		*e = Entry{}
	} else {
		e = &Entry{}
	}
	e.line = line
	e.Owner = -1
	return e
}

// unlink drops an entry from the map and LRU list; its state remains
// readable until recycle.
func (d *Directory) unlink(e *Entry) {
	delete(d.entries, e.line)
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	liveEntries.Add(^uint64(0))
}

// recycle puts an unlinked entry on the free list.
func (d *Directory) recycle(e *Entry) {
	e.next = d.free
	d.free = e
}

func (d *Directory) pushFront(e *Entry) {
	e.next = d.lru.next
	e.prev = &d.lru
	e.next.prev = e
	d.lru.next = e
}

func (d *Directory) touch(e *Entry) {
	if d.lru.next == e {
		return
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	d.pushFront(e)
}

// liveEntries is the process-wide live directory-entry count across every
// running simulation — the job server exposes it as a Prometheus gauge.
var liveEntries atomic.Uint64

// LiveEntries returns the process-wide live directory-entry count.
func LiveEntries() uint64 { return liveEntries.Load() }
