package core

import (
	"fmt"

	"cgct/internal/addr"
	"cgct/internal/coherence"
	"cgct/internal/recycle"
)

// Entry is one Region Coherence Array entry: the coarse-grain state of one
// aligned region, plus the line count used for self-invalidation and
// replacement and the count of those lines a snooper must treat as
// modifiable. The modelled entry also holds the home memory-controller ID
// (storage.go counts its bits); the simulator computes it from the region
// with topology.HomeControllerRegion instead of storing it. Probe and
// Lookup return entries by value; the zero Entry (State RegionInvalid)
// means the region is absent.
//
// LineCount > 0 and ModLines > 0 are this processor's region snoop
// response (RegionClean/RegionDirty's inputs, §3.1), read without
// scanning the cache's tags.
type Entry struct {
	Region    addr.RegionAddr
	State     RegionState
	LineCount int // lines of this region currently cached by this processor
	ModLines  int // of those, lines in E, O or M (see ModifiableLine)
}

// ModifiableLine reports whether a cached line in state st makes its
// region externally dirty to a snooper: O and M hold data memory lacks, and
// MOESI permits a silent E→M upgrade, so E counts too.
func ModifiableLine(st coherence.LineState) bool {
	return st.Dirty() || st == coherence.Exclusive
}

// RCAStats counts RCA events.
type RCAStats struct {
	Hits           uint64
	Misses         uint64
	Allocations    uint64
	Evictions      uint64
	SelfInvals     uint64    // entries dropped by line-count-zero self-invalidation
	EvictedByCount [4]uint64 // evictions with 0, 1, 2, 3+ cached lines (§3.2)
	LineSumAtEvict uint64    // sum of line counts at eviction (avg lines/region)
}

// EmptyEvictFraction returns the fraction of evicted regions that held no
// cached lines (the paper reports 65.1% for 512 B regions).
func (s RCAStats) EmptyEvictFraction() float64 {
	if s.Evictions == 0 {
		return 0
	}
	return float64(s.EvictedByCount[0]) / float64(s.Evictions)
}

// A tag word holds the region address with the region state in its low
// stateBits bits, which are always zero in a region address, and the
// way's last-use tick above addr.PhysAddrBits. A way is invalid when its
// state bits are zero; its tick may then be stale.
const (
	stateBits = 3
	stateMask = 1<<stateBits - 1
	addrMask  = addr.PhysAddrMask &^ stateMask
)

// way is one RCA way: 16 bytes, so a 2-way set fills half a host cache
// line.
type way struct {
	tag   uint64
	lines int32 // cached lines of the region
	mod   int32 // of those, lines in E, O or M
}

// RCA is a set-associative Region Coherence Array. The ways are one dense,
// set-major array, so a probe reads assoc consecutive records and a hit
// refreshes its LRU tick and reads its counts from the record it already
// compared. An RCA of an RCABank is a strided view: its sets are every
// stride-th run of assoc records, starting at offset, in the bank's array.
type RCA struct {
	geom    addr.Geometry
	sets    uint64
	assoc   int
	stride  int // records from one of this RCA's sets to the next
	offset  int // index of this RCA's first way in its set's run
	banked  bool
	setMask uint64
	ways    []way  // this RCA's sets, every stride records from offset
	lruTick uint64 // last tick handed out, at most addr.TickMax

	// OnEvict is called with the victim entry before it is replaced or
	// invalidated, while it is still installed. The simulator uses it to
	// evict the region's cached lines first (inclusion between the RCA and
	// the cache, §3.2).
	OnEvict func(e Entry)

	Stats RCAStats
}

// wayPool recycles way arrays from released RCAs into new ones.
var wayPool recycle.Pool[way]

// NewRCA builds an RCA with the given geometry. sets must be a power of
// two. Its way array may be one a released RCA handed back, zeroed.
func NewRCA(geom addr.Geometry, sets uint64, assoc int) *RCA {
	checkGeometry(sets, assoc)
	return &RCA{
		geom:    geom,
		sets:    sets,
		assoc:   assoc,
		stride:  assoc,
		setMask: sets - 1,
		ways:    wayPool.Get(int(sets) * assoc),
	}
}

// checkGeometry panics unless sets is a power of two and assoc positive.
func checkGeometry(sets uint64, assoc int) {
	if sets == 0 || !addr.IsPow2(sets) || assoc <= 0 {
		panic(fmt.Sprintf("core: bad RCA geometry (%d sets, %d ways)", sets, assoc))
	}
}

// Release hands the way array back for a later NewRCA to reuse. Every
// later probe or update of r then panics instead of reading ways another
// RCA may own; the statistics stay readable. A second Release does
// nothing. An RCA of an RCABank is released with its bank; Release does
// nothing to it.
func (r *RCA) Release() {
	if r.ways != nil && !r.banked {
		wayPool.Put(r.ways)
		r.ways = nil
	}
}

// Geometry returns the line/region geometry.
func (r *RCA) Geometry() addr.Geometry { return r.geom }

// Sets returns the number of sets.
func (r *RCA) Sets() uint64 { return r.sets }

// Assoc returns the associativity.
func (r *RCA) Assoc() int { return r.assoc }

// Entries returns the total capacity in entries.
func (r *RCA) Entries() uint64 { return r.sets * uint64(r.assoc) }

// setBase returns the index of the first way of region's set.
func (r *RCA) setBase(region addr.RegionAddr) int {
	return int((uint64(region)>>r.geom.RegionShift())&r.setMask)*r.stride + r.offset
}

// eachSet calls fn with each of the RCA's sets, in set order.
func (r *RCA) eachSet(fn func(set []way)) {
	for base := r.offset; base < len(r.ways); base += r.stride {
		fn(r.ways[base : base+r.assoc])
	}
}

// find returns the index of region's way, or -1 when it is absent.
func (r *RCA) find(region addr.RegionAddr) int {
	base := r.setBase(region)
	key := uint64(region)
	set := r.ways[base : base+r.assoc]
	for i := range set {
		// The address compare rejects most ways; the state test only
		// matters for region 0, whose key equals an invalid way's address
		// bits.
		if w := set[i].tag; w&addrMask == key && w&stateMask != 0 {
			return base + i
		}
	}
	return -1
}

// entry assembles way i's entry.
func (r *RCA) entry(i int) Entry { return entryOf(&r.ways[i]) }

// entryOf assembles the entry way w holds.
func entryOf(w *way) Entry {
	return Entry{
		Region:    addr.RegionAddr(w.tag & addrMask),
		State:     RegionState(w.tag & stateMask),
		LineCount: int(w.lines),
		ModLines:  int(w.mod),
	}
}

// touch makes the way whose tag word is w the most recently used. It
// takes the word's address, not its index, so that it stays small enough
// to inline.
func (r *RCA) touch(w *uint64) {
	if r.lruTick == addr.TickMax {
		r.renumber()
	}
	r.lruTick++
	*w = *w&addr.PhysAddrMask | r.lruTick<<addr.TickShift
}

// tick returns way i's last-use tick.
func (r *RCA) tick(i int) uint64 { return r.ways[i].tag >> addr.TickShift }

// renumber replaces every way's tick with its rank, 1..assoc, among the
// ticks of its set, and continues counting above the ranks. Ticks are only
// compared within a set, so every later victim is the one the old ticks
// would have chosen. Only empty ways, whose ticks are zero, share a tick;
// they rank in way order.
func (r *RCA) renumber() {
	rank := make([]uint64, r.assoc)
	r.eachSet(func(set []way) {
		for i := range set {
			rank[i] = 1
			for j := range set {
				if t, u := set[j].tag>>addr.TickShift, set[i].tag>>addr.TickShift; t < u || t == u && j < i {
					rank[i]++
				}
			}
		}
		for i := range set {
			set[i].tag = set[i].tag&addr.PhysAddrMask | rank[i]<<addr.TickShift
		}
	})
	r.lruTick = uint64(r.assoc)
}

// Probe returns the entry for region, or the zero Entry when it is
// absent, without touching LRU or stats.
func (r *RCA) Probe(region addr.RegionAddr) Entry {
	if i := r.find(region); i >= 0 {
		return r.entry(i)
	}
	return Entry{}
}

// Lookup returns the entry for region like Probe, counting a hit or miss
// and refreshing LRU on hit.
func (r *RCA) Lookup(region addr.RegionAddr) Entry {
	i := r.find(region)
	if i < 0 {
		r.Stats.Misses++
		return Entry{}
	}
	r.Stats.Hits++
	r.touch(&r.ways[i].tag)
	return r.entry(i)
}

// victim picks the way to displace in the set starting at base: a free
// way if any, else the LRU way among entries with no cached lines (the
// replacement policy favors empty regions, §3.2), else the overall LRU
// way.
func (r *RCA) victim(base int) int {
	free, emptyLRU, anyLRU := -1, -1, -1
	for i := base; i < base+r.assoc; i++ {
		if r.ways[i].tag&stateMask == 0 {
			if free < 0 {
				free = i
			}
			continue
		}
		if r.ways[i].lines == 0 && (emptyLRU < 0 || r.tick(i) < r.tick(emptyLRU)) {
			emptyLRU = i
		}
		if anyLRU < 0 || r.tick(i) < r.tick(anyLRU) {
			anyLRU = i
		}
	}
	if free >= 0 {
		return free
	}
	if emptyLRU >= 0 {
		return emptyLRU
	}
	return anyLRU
}

// Allocate installs region with the given state, displacing a victim if
// needed. OnEvict fires for a valid victim before it is removed. If the
// region is already present its state is updated in place (line counts
// preserved).
func (r *RCA) Allocate(region addr.RegionAddr, st RegionState) {
	if !st.Valid() {
		panic("core: allocating region in state I")
	}
	if uint64(region)&^addrMask != 0 {
		panic(fmt.Sprintf("core: %#x is not a region address below 2^%d", uint64(region), addr.PhysAddrBits))
	}
	if i := r.find(region); i >= 0 {
		r.setState(i, st)
		r.touch(&r.ways[i].tag)
		return
	}
	v := r.victim(r.setBase(region))
	if r.ways[v].tag&stateMask != 0 {
		r.evictWay(v)
	}
	r.Stats.Allocations++
	r.ways[v] = way{tag: uint64(region) | uint64(st)}
	r.touch(&r.ways[v].tag)
}

func (r *RCA) evictWay(v int) {
	r.Stats.Evictions++
	lines := int(r.ways[v].lines)
	r.Stats.EvictedByCount[min(lines, 3)]++
	r.Stats.LineSumAtEvict += uint64(lines)
	if r.OnEvict != nil {
		r.OnEvict(r.entry(v))
	}
	r.ways[v] = way{}
}

// setState stores valid state st in present way i.
func (r *RCA) setState(i int, st RegionState) {
	r.ways[i].tag = r.ways[i].tag&^stateMask | uint64(st)
}

// SetState updates the state of a present region (no-op when absent).
// Setting RegionInvalid removes the entry without firing OnEvict — used by
// self-invalidation, where the line count is already zero.
func (r *RCA) SetState(region addr.RegionAddr, st RegionState) {
	i := r.find(region)
	if i < 0 {
		return
	}
	if !st.Valid() {
		r.ways[i] = way{}
		return
	}
	r.setState(i, st)
}

// IncLineCount notes that a line of region entered the cache, and whether
// it entered modifiable (ModifiableLine). The region must be present
// (inclusion invariant); the simulator allocates the entry before filling
// lines.
func (r *RCA) IncLineCount(region addr.RegionAddr, modifiable bool) {
	i := r.find(region)
	if i < 0 {
		coherence.Violate(coherence.InvariantError{
			Check: "rca-inclusion", Region: uint64(region),
			Detail: "line fill for a region with no RCA entry",
		})
	}
	r.ways[i].lines++
	if modifiable {
		r.ways[i].mod++
	}
}

// DecLineCount notes that a line of region left the cache, and whether it
// was modifiable when it left. Tolerates a missing entry (the region may
// be mid-eviction).
func (r *RCA) DecLineCount(region addr.RegionAddr, modifiable bool) {
	i := r.find(region)
	if i < 0 {
		return
	}
	w := &r.ways[i]
	w.lines--
	if modifiable {
		w.mod--
	}
	if w.lines < 0 || w.mod < 0 {
		coherence.Violate(coherence.InvariantError{
			Check: "rca-line-count", Region: uint64(region),
			States: RegionState(w.tag & stateMask).String(),
			Detail: "negative cached-line count",
		})
	}
}

// AdjustModLines notes that a cached line of region crossed the
// modifiable boundary: it became modifiable (S→M, S→E) when modifiable is
// true, and stopped being so (E→S, M→S) otherwise. Like DecLineCount it
// tolerates a missing entry.
func (r *RCA) AdjustModLines(region addr.RegionAddr, modifiable bool) {
	i := r.find(region)
	if i < 0 {
		return
	}
	w := &r.ways[i]
	if modifiable {
		w.mod++
		return
	}
	w.mod--
	if w.mod < 0 {
		coherence.Violate(coherence.InvariantError{
			Check: "rca-line-count", Region: uint64(region),
			States: RegionState(w.tag & stateMask).String(),
			Detail: "negative modifiable-line count",
		})
	}
}

// ForEachValid visits all valid entries (diagnostics/tests).
func (r *RCA) ForEachValid(fn func(Entry)) {
	r.eachSet(func(set []way) {
		for i := range set {
			if set[i].tag&stateMask != 0 {
				fn(entryOf(&set[i]))
			}
		}
	})
}

// CountValid returns the number of valid entries.
func (r *RCA) CountValid() int {
	n := 0
	r.ForEachValid(func(Entry) { n++ })
	return n
}

// Holder is one RCA of a machine that holds an entry for a region, and
// the entry.
type Holder struct {
	Index int // the RCA's index in its RCABank (its node)
	Entry Entry
}

// RCABank is n RCAs of one geometry whose ways share one array,
// interleaved set-major then RCA: way w of set s of RCA i is record
// (s·n+i)·assoc+w. The n copies of a set then sit side by side, so
// Holders answers a region snoop of every RCA with one scan of n·assoc
// records, while each RCA, a strided view, still probes its own assoc
// consecutive records.
type RCABank struct {
	rcas     []*RCA
	ways     []way
	assoc    int
	setWays  int // n·assoc: the records of one set across the bank
	setMask  uint64
	regShift uint
}

// NewRCABank builds n RCAs with the given geometry. sets must be a power
// of two. Its way array may be one a released bank handed back, zeroed.
func NewRCABank(geom addr.Geometry, n int, sets uint64, assoc int) *RCABank {
	checkGeometry(sets, assoc)
	b := &RCABank{
		ways:     wayPool.Get(int(sets) * n * assoc),
		assoc:    assoc,
		setWays:  n * assoc,
		setMask:  sets - 1,
		regShift: geom.RegionShift(),
	}
	for i := 0; i < n; i++ {
		b.rcas = append(b.rcas, &RCA{
			geom:    geom,
			sets:    sets,
			assoc:   assoc,
			stride:  b.setWays,
			offset:  i * assoc,
			banked:  true,
			setMask: b.setMask,
			ways:    b.ways,
		})
	}
	return b
}

// RCA returns RCA i.
func (b *RCABank) RCA(i int) *RCA { return b.rcas[i] }

// Holders appends to dst, in RCA order, every RCA of the bank that holds
// an entry for region, with the entry, and returns the grown slice. It
// scans region's set across the bank once; a region has at most one way
// in each RCA, so each holder appears once.
func (b *RCABank) Holders(region addr.RegionAddr, dst []Holder) []Holder {
	key := uint64(region)
	base := int((key>>b.regShift)&b.setMask) * b.setWays
	set := b.ways[base : base+b.setWays]
	for j := range set {
		if w := set[j].tag; w&addrMask == key && w&stateMask != 0 {
			dst = append(dst, Holder{Index: j / b.assoc, Entry: entryOf(&set[j])})
		}
	}
	return dst
}

// Release hands the way array back for a later NewRCABank to reuse. Every
// later probe or update of one of the bank's RCAs then panics instead of
// reading ways another bank may own; their statistics stay readable. A
// second Release does nothing.
func (b *RCABank) Release() {
	if b.ways == nil {
		return
	}
	wayPool.Put(b.ways)
	b.ways = nil
	for _, r := range b.rcas {
		r.ways = nil
	}
}
