// Package cache implements the set-associative, write-back caches of the
// simulated processors (L1I, L1D and L2). It stores tags and coherence
// state only — the simulator tracks no data contents except for a separate
// architectural-memory checker in the tests.
//
// The cache is a plain deterministic data structure; all timing lives in
// the simulation layer.
package cache

import (
	"fmt"

	"cgct/internal/addr"
	"cgct/internal/coherence"
	"cgct/internal/recycle"
)

// Line is one cache line's address and coherence state, as the eviction
// and allocation hooks observe it.
type Line struct {
	Addr  addr.LineAddr
	State coherence.LineState
}

// Stats counts cache events.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64 // capacity/conflict evictions of valid lines
	DirtyEvicts uint64 // evictions that produced a write-back
	Invals      uint64 // externally forced invalidations
}

// A tag word holds one way: the line address with the coherence state in
// its low stateBits bits, which are always zero in a line address (lines
// are at least 8 bytes), and the way's last-use tick above
// addr.PhysAddrBits. A way is invalid when its state bits are zero; its
// tick may then be stale.
const (
	stateBits = 3
	stateMask = 1<<stateBits - 1
	addrMask  = addr.PhysAddrMask &^ stateMask
)

// Cache is a set-associative cache keyed by line address. The ways are
// one dense, set-major array of tag words, so a probe reads assoc
// consecutive 8-byte words and a hit refreshes its LRU tick in the word it
// already read. A cache of a Bank is a strided view: its sets are every
// stride-th run of assoc words, starting at offset, in the bank's array.
type Cache struct {
	name      string
	assoc     int
	stride    int // words from one of this cache's sets to the next
	offset    int // index of this cache's first way in its set's run
	banked    bool
	lineShift uint
	setMask   uint64
	tags      []uint64 // this cache's sets, every stride words from offset
	lruTick   uint64   // last tick handed out, at most addr.TickMax

	// OnEvict, when set, observes every valid line leaving the cache
	// (capacity eviction or invalidation). The RCA uses it to maintain
	// region line counts; the L2 uses it to back-invalidate the L1s.
	OnEvict func(l Line, wasEviction bool)
	// OnAllocate observes every line entering the cache.
	OnAllocate func(l Line)
	// OnStateChange observes a present line moving between two different
	// valid states (Promote, SetState, Allocate of a present line). The
	// RCA uses it to count each region's modifiable lines.
	OnStateChange func(l addr.LineAddr, from, to coherence.LineState)

	Stats Stats
}

// tagPool recycles tag arrays from released caches into new ones.
var tagPool recycle.Pool[uint64]

// New builds a cache of sizeBytes with the given associativity and line
// size. Panics on invalid geometry (configuration is validated upstream).
// Its tag array may be one a released cache handed back, zeroed.
func New(name string, sizeBytes uint64, assoc int, lineBytes uint64) *Cache {
	numSets := setCount(name, sizeBytes, assoc, lineBytes)
	return &Cache{
		name:      name,
		assoc:     assoc,
		stride:    assoc,
		lineShift: addr.Log2(lineBytes),
		setMask:   numSets - 1,
		tags:      tagPool.Get(int(numSets) * assoc),
	}
}

// setCount returns the set count of a cache of sizeBytes, panicking on
// invalid geometry (configuration is validated upstream).
func setCount(name string, sizeBytes uint64, assoc int, lineBytes uint64) uint64 {
	if assoc <= 0 || !addr.IsPow2(lineBytes) || lineBytes <= stateMask {
		panic(fmt.Sprintf("cache %s: bad geometry", name))
	}
	n := sizeBytes / (lineBytes * uint64(assoc))
	if n == 0 || !addr.IsPow2(n) {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, n))
	}
	return n
}

// Release hands the tag array back for a later New to reuse. Every later
// probe or update of c then panics instead of reading ways another cache
// may own; the statistics stay readable. A second Release does nothing.
// A cache of a Bank is released with its bank; Release does nothing to
// it.
func (c *Cache) Release() {
	if c.tags != nil && !c.banked {
		tagPool.Put(c.tags)
		c.tags = nil
	}
}

// setBase returns the index of the first way of l's set.
func (c *Cache) setBase(l addr.LineAddr) int {
	return int((uint64(l)>>c.lineShift)&c.setMask)*c.stride + c.offset
}

// sets calls fn with each of the cache's sets, in set order.
func (c *Cache) sets(fn func(set []uint64)) {
	for base := c.offset; base < len(c.tags); base += c.stride {
		fn(c.tags[base : base+c.assoc])
	}
}

// find returns the index of l's way, or -1 when l is not present.
func (c *Cache) find(l addr.LineAddr) int {
	base := c.setBase(l)
	key := uint64(l)
	for i, w := range c.tags[base : base+c.assoc] {
		// The address compare rejects most ways; the state test only
		// matters for line 0, whose key equals an invalid way's address
		// bits.
		if w&addrMask == key && w&stateMask != 0 {
			return base + i
		}
	}
	return -1
}

// touch makes the way whose tag word is w the most recently used. It
// takes the word's address, not its index, so that it stays small enough
// to inline.
func (c *Cache) touch(w *uint64) {
	if c.lruTick == addr.TickMax {
		c.renumber()
	}
	c.lruTick++
	*w = *w&addr.PhysAddrMask | c.lruTick<<addr.TickShift
}

// renumber replaces every way's tick with its rank, 1..assoc, among the
// ticks of its set, and continues counting above the ranks. Ticks are only
// compared within a set, so every later victim is the one the old ticks
// would have chosen. Only empty ways, whose ticks are zero, share a tick;
// they rank in way order.
func (c *Cache) renumber() {
	rank := make([]uint64, c.assoc)
	c.sets(func(set []uint64) {
		for i := range set {
			rank[i] = 1
			for j := range set {
				if t, u := set[j]>>addr.TickShift, set[i]>>addr.TickShift; t < u || t == u && j < i {
					rank[i]++
				}
			}
		}
		for i := range set {
			set[i] = set[i]&addr.PhysAddrMask | rank[i]<<addr.TickShift
		}
	})
	c.lruTick = uint64(c.assoc)
}

func lineAt(w uint64) Line {
	return Line{Addr: addr.LineAddr(w & addrMask), State: coherence.LineState(w & stateMask)}
}

// Lookup returns the line's state without touching LRU or stats. Invalid
// means not present.
func (c *Cache) Lookup(l addr.LineAddr) coherence.LineState {
	if i := c.find(l); i >= 0 {
		return coherence.LineState(c.tags[i] & stateMask)
	}
	return coherence.Invalid
}

// Access looks the line up and updates LRU and hit/miss statistics. It
// returns the line's state (Invalid on a miss).
func (c *Cache) Access(l addr.LineAddr) coherence.LineState {
	i := c.find(l)
	if i < 0 {
		c.Stats.Misses++
		return coherence.Invalid
	}
	c.Stats.Hits++
	c.touch(&c.tags[i])
	return coherence.LineState(c.tags[i] & stateMask)
}

// Touch refreshes the line's LRU position without counting a hit.
func (c *Cache) Touch(l addr.LineAddr) {
	if i := c.find(l); i >= 0 {
		c.touch(&c.tags[i])
	}
}

// Promote sets a present line's state and refreshes its LRU position in a
// single tag lookup — the store-hit fast path, equivalent to SetState
// followed by Touch. It must not be used to invalidate; it is a no-op when
// the line is absent.
func (c *Cache) Promote(l addr.LineAddr, st coherence.LineState) {
	if !st.Valid() {
		panic(fmt.Sprintf("cache %s: Promote to invalid state", c.name))
	}
	if i := c.find(l); i >= 0 {
		c.rewrite(i, l, st)
		c.touch(&c.tags[i])
	}
}

// rewrite stores state st in present way i, which holds l, and fires
// OnStateChange when the state differs.
func (c *Cache) rewrite(i int, l addr.LineAddr, st coherence.LineState) {
	from := coherence.LineState(c.tags[i] & stateMask)
	c.tags[i] = c.tags[i]&^stateMask | uint64(st)
	if from != st && c.OnStateChange != nil {
		c.OnStateChange(l, from, st)
	}
}

// Allocate inserts line l with the given state, evicting the LRU way if the
// set is full. It returns the evicted line (State != Invalid when a real
// eviction happened). Allocating a line that is already present just
// updates its state.
func (c *Cache) Allocate(l addr.LineAddr, st coherence.LineState) (evicted Line) {
	if !st.Valid() {
		panic(fmt.Sprintf("cache %s: allocating %v in state I", c.name, l))
	}
	if uint64(l)&^addrMask != 0 {
		panic(fmt.Sprintf("cache %s: %#x is not a line address below 2^%d", c.name, uint64(l), addr.PhysAddrBits))
	}
	if i := c.find(l); i >= 0 {
		c.rewrite(i, l, st)
		c.touch(&c.tags[i])
		return Line{}
	}
	// Victim: the first free way, else the least recently used one.
	base := c.setBase(l)
	slot := -1
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i]&stateMask == 0 {
			slot = i
			break
		}
		if slot < 0 || c.tags[i]>>addr.TickShift < c.tags[slot]>>addr.TickShift {
			slot = i
		}
	}
	if c.tags[slot]&stateMask != 0 {
		evicted = lineAt(c.tags[slot])
		c.Stats.Evictions++
		if evicted.State.Dirty() {
			c.Stats.DirtyEvicts++
		}
		if c.OnEvict != nil {
			c.OnEvict(evicted, true)
		}
	}
	c.tags[slot] = uint64(l) | uint64(st)
	c.touch(&c.tags[slot])
	if c.OnAllocate != nil {
		c.OnAllocate(Line{Addr: l, State: st})
	}
	return evicted
}

// SetState changes the state of a present line; it is a no-op when the line
// is absent. Setting Invalid removes the line (counted as an invalidation).
func (c *Cache) SetState(l addr.LineAddr, st coherence.LineState) {
	i := c.find(l)
	if i < 0 {
		return
	}
	if st == coherence.Invalid {
		c.invalidateWay(i)
		return
	}
	c.rewrite(i, l, st)
}

// Invalidate removes the line, returning its prior state (Invalid if it was
// not present).
func (c *Cache) Invalidate(l addr.LineAddr) coherence.LineState {
	i := c.find(l)
	if i < 0 {
		return coherence.Invalid
	}
	return c.invalidateWay(i).State
}

// invalidateWay empties way i, then fires OnEvict with the line it held.
func (c *Cache) invalidateWay(i int) Line {
	old := lineAt(c.tags[i])
	c.tags[i] = 0
	c.Stats.Invals++
	if c.OnEvict != nil {
		c.OnEvict(old, false)
	}
	return old
}

// CountValid returns the number of valid lines (test/diagnostic helper).
func (c *Cache) CountValid() int {
	n := 0
	c.ForEachValid(func(Line) { n++ })
	return n
}

// ForEachValid calls fn for every valid line (order: set-major). Intended
// for tests and final-state checks, not hot paths.
func (c *Cache) ForEachValid(fn func(Line)) {
	c.sets(func(set []uint64) {
		for _, w := range set {
			if w&stateMask != 0 {
				fn(lineAt(w))
			}
		}
	})
}

// RegionSnoop summarises the cache's copies within a region: whether any
// valid line exists and whether any line is in a modifiable-capable state
// (E, O or M). This is what a remote processor contributes to the region
// snoop response. Exclusive counts as "dirty" for region purposes because
// MOESI permits a silent E→M upgrade — a region containing a remote E line
// cannot be treated as externally clean. The simulator reads the response
// from the RCA's line counts; this scan is the reference its debug checks
// compare them against.
func (c *Cache) RegionSnoop(g addr.Geometry, r addr.RegionAddr) (present, modifiable bool) {
	for i := 0; i < g.LinesPerRegion(); i++ {
		if st := c.Lookup(g.LineInRegion(r, i)); st.Valid() {
			present = true
			if st.Dirty() || st == coherence.Exclusive {
				return true, true
			}
		}
	}
	return present, false
}
