// Package regionscout implements RegionScout (Moshovos, ISCA 2005), the
// concurrently proposed region-tracking technique the paper's related-work
// section compares against. RegionScout keeps far less state than a Region
// Coherence Array:
//
//   - a Cached Region Hash (CRH): an untagged array of counters indexed by
//     a hash of the region address, counting locally cached lines. It
//     answers "might I cache lines of this region?" — false positives from
//     hash collisions are allowed (they only cost filtering opportunity,
//     never correctness);
//   - a Not-Shared Region Table (NSRT): a small tagged table of regions a
//     broadcast proved globally unshared. Requests to NSRT-hit regions
//     skip the snoop; any observed external request to the region evicts
//     the entry.
//
// The global snoop response carries a single "region miss" bit computed
// from the other processors' CRHs — imprecise where CGCT's response is
// exact, which is exactly the storage/effectiveness trade-off the paper
// describes.
package regionscout

import (
	"fmt"

	"cgct/internal/addr"
	"cgct/internal/recycle"
)

// CRH is the Cached Region Hash: counters over a hash of the region
// address. Collisions make Present conservative (may claim presence for
// regions that only share a bucket with cached ones). A CRH of a CRHBank
// is a strided view: its counter for bucket b is b·stride+offset in the
// bank's array.
type CRH struct {
	counters []uint32
	hash     bucketHash
	stride   uint64
	offset   uint64
}

// bucketHash maps a region to its CRH bucket.
type bucketHash struct {
	mask  uint64
	shift uint
}

func newBucketHash(counters uint64, regionBytes uint64) bucketHash {
	if counters == 0 || !addr.IsPow2(counters) {
		panic(fmt.Sprintf("regionscout: CRH size %d not a power of two", counters))
	}
	return bucketHash{mask: counters - 1, shift: addr.Log2(regionBytes)}
}

func (h bucketHash) bucket(r addr.RegionAddr) uint64 {
	v := uint64(r) >> h.shift
	// Cheap mixing so that strided regions spread over the counters.
	v ^= v >> 17
	v *= 0x9e3779b97f4a7c15
	return (v >> 13) & h.mask
}

// NewCRH builds a CRH with the given counter count (power of two) for the
// given region size.
func NewCRH(counters uint64, regionBytes uint64) *CRH {
	return &CRH{
		counters: make([]uint32, counters),
		hash:     newBucketHash(counters, regionBytes),
		stride:   1,
	}
}

func (c *CRH) index(r addr.RegionAddr) uint64 {
	return c.hash.bucket(r)*c.stride + c.offset
}

// Inc notes a line of region r entering the cache.
func (c *CRH) Inc(r addr.RegionAddr) { c.counters[c.index(r)]++ }

// Dec notes a line of region r leaving the cache.
func (c *CRH) Dec(r addr.RegionAddr) {
	i := c.index(r)
	if c.counters[i] == 0 {
		panic("regionscout: CRH underflow")
	}
	c.counters[i]--
}

// Present reports whether the node may cache lines of region r (exact
// zeros, conservative non-zeros).
func (c *CRH) Present(r addr.RegionAddr) bool { return c.counters[c.index(r)] != 0 }

// CRHBank is n CRHs of one geometry whose counters share one array,
// interleaved bucket-major then CRH: bucket b of CRH i is counter b·n+i.
// The n counters of a bucket then sit side by side, so Holders answers
// the region-miss snoop of every CRH with one scan of n counters.
type CRHBank struct {
	crhs     []*CRH
	counters []uint32
	hash     bucketHash
}

// counterPool recycles counter arrays from released banks into new ones.
var counterPool recycle.Pool[uint32]

// NewCRHBank builds n CRHs with the given counter count (power of two) for
// the given region size. Its counter array may be one a released bank
// handed back, zeroed.
func NewCRHBank(n int, counters uint64, regionBytes uint64) *CRHBank {
	b := &CRHBank{
		counters: counterPool.Get(int(counters) * n),
		hash:     newBucketHash(counters, regionBytes),
	}
	for i := 0; i < n; i++ {
		b.crhs = append(b.crhs, &CRH{counters: b.counters, hash: b.hash, stride: uint64(n), offset: uint64(i)})
	}
	return b
}

// CRH returns CRH i.
func (b *CRHBank) CRH(i int) *CRH { return b.crhs[i] }

// Holders appends to dst, in CRH order, every CRH of the bank whose
// counter for region r is non-zero (Present), and returns the grown slice.
func (b *CRHBank) Holders(r addr.RegionAddr, dst []int) []int {
	n := uint64(len(b.crhs))
	base := b.hash.bucket(r) * n
	for i, c := range b.counters[base : base+n] {
		if c != 0 {
			dst = append(dst, i)
		}
	}
	return dst
}

// Release hands the counter array back for a later NewCRHBank to reuse.
// Every later use of one of the bank's CRHs then panics instead of reading
// counters another bank may own. A second Release does nothing.
func (b *CRHBank) Release() {
	if b.counters == nil {
		return
	}
	counterPool.Put(b.counters)
	b.counters = nil
	for _, c := range b.crhs {
		c.counters = nil
	}
}

// nsrtEntry is one tagged NSRT way.
type nsrtEntry struct {
	region addr.RegionAddr
	valid  bool
	lru    uint64
}

// NSRT is the Not-Shared Region Table: a small set-associative tagged
// table of regions known to be globally unshared.
type NSRT struct {
	setMask uint64
	assoc   int
	shift   uint
	ways    []nsrtEntry
	tick    uint64
	Inserts uint64
	Hits    uint64
	Misses  uint64
	Evicted uint64 // invalidations from observed external requests
}

// NewNSRT builds an NSRT with the given total entry count (power of two)
// and associativity.
func NewNSRT(entries uint64, assoc int, regionBytes uint64) *NSRT {
	if entries == 0 || !addr.IsPow2(entries) || assoc <= 0 || entries%uint64(assoc) != 0 {
		panic(fmt.Sprintf("regionscout: bad NSRT geometry (%d entries, %d ways)", entries, assoc))
	}
	// assoc divides a power of two, so it is one, and so is the set count.
	return &NSRT{
		setMask: entries/uint64(assoc) - 1,
		assoc:   assoc,
		shift:   addr.Log2(regionBytes),
		ways:    make([]nsrtEntry, entries),
	}
}

func (t *NSRT) set(r addr.RegionAddr) []nsrtEntry {
	idx := (uint64(r) >> t.shift) & t.setMask
	i := idx * uint64(t.assoc)
	return t.ways[i : i+uint64(t.assoc)]
}

// Lookup reports whether region r is recorded as globally unshared.
func (t *NSRT) Lookup(r addr.RegionAddr) bool {
	s := t.set(r)
	for i := range s {
		if s[i].valid && s[i].region == r {
			t.tick++
			s[i].lru = t.tick
			t.Hits++
			return true
		}
	}
	t.Misses++
	return false
}

// Insert records region r as globally unshared (a broadcast's snoop
// response proved it). When that displaces another region's entry, it
// returns that region and true.
func (t *NSRT) Insert(r addr.RegionAddr) (displaced addr.RegionAddr, ok bool) {
	s := t.set(r)
	var victim *nsrtEntry
	for i := range s {
		if s[i].valid && s[i].region == r {
			t.tick++
			s[i].lru = t.tick
			return 0, false
		}
		if !s[i].valid {
			if victim == nil || victim.valid {
				victim = &s[i]
			}
			continue
		}
		if victim == nil || (victim.valid && s[i].lru < victim.lru) {
			victim = &s[i]
		}
	}
	displaced, ok = victim.region, victim.valid
	t.tick++
	*victim = nsrtEntry{region: r, valid: true, lru: t.tick}
	t.Inserts++
	return displaced, ok
}

// Has reports whether the table holds a live entry for region r, without
// touching LRU or stats.
func (t *NSRT) Has(r addr.RegionAddr) bool {
	for _, e := range t.set(r) {
		if e.valid && e.region == r {
			return true
		}
	}
	return false
}

// Observe invalidates the entry for region r — called when this node
// observes another agent's request for the region (it is no longer known
// unshared). This is what keeps at most one NSRT entry per region alive
// system-wide: a node can only insert after a broadcast, and that same
// broadcast evicts every older entry.
func (t *NSRT) Observe(r addr.RegionAddr) {
	s := t.set(r)
	for i := range s {
		if s[i].valid && s[i].region == r {
			s[i].valid = false
			t.Evicted++
			return
		}
	}
}

// CountValid returns the live entry count (tests/diagnostics).
func (t *NSRT) CountValid() int {
	n := 0
	for i := range t.ways {
		if t.ways[i].valid {
			n++
		}
	}
	return n
}

// NSRTs is one machine's NSRTs, one per node, and the record of which node
// holds each region's live entry. Observe's invariant — at most one live
// entry per region system-wide — makes that one node, so a broadcast's
// invalidation goes straight to it instead of to every node.
type NSRTs struct {
	tables []*NSRT
	holder map[addr.RegionAddr]int
}

// NewNSRTs builds n NSRTs of the given geometry (see NewNSRT).
func NewNSRTs(n int, entries uint64, assoc int, regionBytes uint64) *NSRTs {
	m := &NSRTs{holder: make(map[addr.RegionAddr]int)}
	for i := 0; i < n; i++ {
		m.tables = append(m.tables, NewNSRT(entries, assoc, regionBytes))
	}
	return m
}

// Table returns node i's NSRT.
func (m *NSRTs) Table(i int) *NSRT { return m.tables[i] }

// Holder returns the node whose table holds region r's live entry, or
// false when none does.
func (m *NSRTs) Holder(r addr.RegionAddr) (int, bool) {
	i, ok := m.holder[r]
	return i, ok
}

// Observe ends region r's not-shared status at every node but requester:
// a broadcast by requester for r was observed. Only the recorded holder
// can have an entry to invalidate.
func (m *NSRTs) Observe(requester int, r addr.RegionAddr) {
	if i, ok := m.holder[r]; ok && i != requester {
		m.tables[i].Observe(r)
		delete(m.holder, r)
	}
}

// Insert records region r as globally unshared at node i (see
// NSRT.Insert). Call it only after Observe for the same broadcast, so that
// no other node still holds an entry for r.
func (m *NSRTs) Insert(i int, r addr.RegionAddr) {
	if displaced, ok := m.tables[i].Insert(r); ok {
		delete(m.holder, displaced)
	}
	m.holder[r] = i
}
