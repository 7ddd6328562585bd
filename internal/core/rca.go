package core

import (
	"fmt"

	"cgct/internal/addr"
	"cgct/internal/coherence"
)

// Entry is one Region Coherence Array entry: the coarse-grain state of one
// aligned region, plus the line count used for self-invalidation and
// replacement, the count of those lines a snooper must treat as
// modifiable, and the home memory-controller ID used to route direct
// requests and write-backs. Probe and Lookup return entries by value; the
// zero Entry (State RegionInvalid) means the region is absent.
//
// LineCount > 0 and ModLines > 0 are this processor's region snoop
// response (RegionClean/RegionDirty's inputs, §3.1), read without
// scanning the cache's tags.
type Entry struct {
	Region    addr.RegionAddr
	State     RegionState
	LineCount int // lines of this region currently cached by this processor
	ModLines  int // of those, lines in E, O or M (see ModifiableLine)
	MemCtrl   int // home memory controller ID
}

// ModifiableLine reports whether a cached line in state st makes its
// region externally dirty to a snooper: O and M hold data memory lacks, and
// MOESI permits a silent E→M upgrade, so E counts too.
func ModifiableLine(st coherence.LineState) bool {
	return st.Dirty() || st == coherence.Exclusive
}

// RCAStats counts RCA events.
type RCAStats struct {
	Hits             uint64
	Misses           uint64
	Allocations      uint64
	Evictions        uint64
	SelfInvals       uint64    // entries dropped by line-count-zero self-invalidation
	EvictedByCount   [4]uint64 // evictions with 0, 1, 2, 3+ cached lines (§3.2)
	LineSumAtEvict   uint64    // sum of line counts at eviction (avg lines/region)
	DowngradeExt     uint64    // external requests that downgraded the entry
	UpgradeFromResp  uint64    // broadcast responses that upgraded the external component
	LocalCompletions uint64    // requests completed with no external request
}

// EmptyEvictFraction returns the fraction of evicted regions that held no
// cached lines (the paper reports 65.1% for 512 B regions).
func (s RCAStats) EmptyEvictFraction() float64 {
	if s.Evictions == 0 {
		return 0
	}
	return float64(s.EvictedByCount[0]) / float64(s.Evictions)
}

// A tag word holds one way: the region address with the region state in
// its low stateBits bits, which are always zero in a region address. An
// invalid way is the zero word.
const (
	stateBits = 3
	stateMask = 1<<stateBits - 1
)

// wayMeta is the per-way bookkeeping a tag compare never needs.
type wayMeta struct {
	lines   int32 // cached lines of the region
	mod     int32 // of those, lines in E, O or M
	memCtrl int32 // home memory controller ID
}

// RCA is a set-associative Region Coherence Array. The ways are one dense,
// set-major array of tag words; LRU ticks and the line counts and
// controller ID sit in parallel arrays that only hits, fills and
// evictions touch.
type RCA struct {
	geom    addr.Geometry
	sets    uint64
	assoc   int
	setMask uint64
	tags    []uint64  // sets * assoc tag words, set-major
	lru     []uint64  // last-use tick of each way
	meta    []wayMeta // line counts and controller of each way
	lruTick uint64

	// OnEvict is called with the victim entry before it is replaced or
	// invalidated, while it is still installed. The simulator uses it to
	// evict the region's cached lines first (inclusion between the RCA and
	// the cache, §3.2).
	OnEvict func(e Entry)

	Stats RCAStats
}

// NewRCA builds an RCA with the given geometry. sets must be a power of
// two.
func NewRCA(geom addr.Geometry, sets uint64, assoc int) *RCA {
	if sets == 0 || !addr.IsPow2(sets) || assoc <= 0 {
		panic(fmt.Sprintf("core: bad RCA geometry (%d sets, %d ways)", sets, assoc))
	}
	ways := sets * uint64(assoc)
	return &RCA{
		geom:    geom,
		sets:    sets,
		assoc:   assoc,
		setMask: sets - 1,
		tags:    make([]uint64, ways),
		lru:     make([]uint64, ways),
		meta:    make([]wayMeta, ways),
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
	return int((uint64(region)>>r.geom.RegionShift())&r.setMask) * r.assoc
}

// find returns the index of region's way, or -1 when it is absent.
func (r *RCA) find(region addr.RegionAddr) int {
	base := r.setBase(region)
	key := uint64(region)
	for i, w := range r.tags[base : base+r.assoc] {
		// The address compare rejects most ways; the state test only
		// matters for region 0, whose key equals an invalid way's word.
		if w&^stateMask == key && w&stateMask != 0 {
			return base + i
		}
	}
	return -1
}

// entry assembles way i's entry.
func (r *RCA) entry(i int) Entry {
	w, m := r.tags[i], r.meta[i]
	return Entry{
		Region:    addr.RegionAddr(w &^ stateMask),
		State:     RegionState(w & stateMask),
		LineCount: int(m.lines),
		ModLines:  int(m.mod),
		MemCtrl:   int(m.memCtrl),
	}
}

// touch makes way i the most recently used.
func (r *RCA) touch(i int) {
	r.lruTick++
	r.lru[i] = r.lruTick
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
	r.touch(i)
	return r.entry(i)
}

// victim picks the way to displace in the set starting at base: a free
// way if any, else the LRU way among entries with no cached lines (the
// replacement policy favors empty regions, §3.2), else the overall LRU
// way.
func (r *RCA) victim(base int) int {
	free, emptyLRU, anyLRU := -1, -1, -1
	for i := base; i < base+r.assoc; i++ {
		if r.tags[i] == 0 {
			if free < 0 {
				free = i
			}
			continue
		}
		if r.meta[i].lines == 0 && (emptyLRU < 0 || r.lru[i] < r.lru[emptyLRU]) {
			emptyLRU = i
		}
		if anyLRU < 0 || r.lru[i] < r.lru[anyLRU] {
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

// Allocate installs region with the given state and home memory controller,
// displacing a victim if needed. OnEvict fires for a valid victim before it
// is removed. If the region is already present its state is updated in
// place (line counts preserved).
func (r *RCA) Allocate(region addr.RegionAddr, st RegionState, memCtrl int) {
	if !st.Valid() {
		panic("core: allocating region in state I")
	}
	if uint64(region)&stateMask != 0 {
		panic(fmt.Sprintf("core: %#x is not a region address", uint64(region)))
	}
	if i := r.find(region); i >= 0 {
		r.tags[i] = uint64(region) | uint64(st)
		r.meta[i].memCtrl = int32(memCtrl)
		r.touch(i)
		return
	}
	v := r.victim(r.setBase(region))
	if r.tags[v] != 0 {
		r.evictWay(v)
	}
	r.Stats.Allocations++
	r.tags[v] = uint64(region) | uint64(st)
	r.meta[v] = wayMeta{memCtrl: int32(memCtrl)}
	r.touch(v)
}

func (r *RCA) evictWay(v int) {
	r.Stats.Evictions++
	lines := int(r.meta[v].lines)
	r.Stats.EvictedByCount[min(lines, 3)]++
	r.Stats.LineSumAtEvict += uint64(lines)
	if r.OnEvict != nil {
		r.OnEvict(r.entry(v))
	}
	r.tags[v] = 0
	r.meta[v].lines, r.meta[v].mod = 0, 0
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
		r.tags[i] = 0
		r.meta[i].lines, r.meta[i].mod = 0, 0
		return
	}
	r.tags[i] = uint64(region) | uint64(st)
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
	r.meta[i].lines++
	if modifiable {
		r.meta[i].mod++
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
	r.meta[i].lines--
	if modifiable {
		r.meta[i].mod--
	}
	if r.meta[i].lines < 0 || r.meta[i].mod < 0 {
		coherence.Violate(coherence.InvariantError{
			Check: "rca-line-count", Region: uint64(region),
			States: RegionState(r.tags[i] & stateMask).String(),
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
	if modifiable {
		r.meta[i].mod++
		return
	}
	r.meta[i].mod--
	if r.meta[i].mod < 0 {
		coherence.Violate(coherence.InvariantError{
			Check: "rca-line-count", Region: uint64(region),
			States: RegionState(r.tags[i] & stateMask).String(),
			Detail: "negative modifiable-line count",
		})
	}
}

// ForEachValid visits all valid entries (diagnostics/tests).
func (r *RCA) ForEachValid(fn func(Entry)) {
	for i, w := range r.tags {
		if w != 0 {
			fn(r.entry(i))
		}
	}
}

// CountValid returns the number of valid entries.
func (r *RCA) CountValid() int {
	n := 0
	for _, w := range r.tags {
		if w != 0 {
			n++
		}
	}
	return n
}
