package cache

import (
	"fmt"

	"cgct/internal/addr"
	"cgct/internal/coherence"
	"cgct/internal/recycle"
)

// Store is the interface the simulator's nodes use for their L2, satisfied
// by both the conventional Cache and the Sectored variant from the paper's
// related-work discussion.
type Store interface {
	// Lookup returns the line's coherence state (Invalid when absent).
	Lookup(l addr.LineAddr) coherence.LineState
	// AccessHit looks the line up, updating LRU and hit/miss statistics.
	AccessHit(l addr.LineAddr) bool
	// Allocate installs the line, displacing a victim if needed.
	Allocate(l addr.LineAddr, st coherence.LineState) Line
	// SetState changes a present line's state (Invalid removes it).
	SetState(l addr.LineAddr, st coherence.LineState)
	// Invalidate removes the line, returning its prior state.
	Invalidate(l addr.LineAddr) coherence.LineState
	// Touch refreshes the line's replacement position.
	Touch(l addr.LineAddr)
	// Promote sets a present line's state and refreshes its replacement
	// position in one lookup — equivalent to SetState then Touch for a
	// valid target state.
	Promote(l addr.LineAddr, st coherence.LineState)
	// RegionSnoop reports region presence and modifiable-capability by
	// scanning the region's lines (see Cache.RegionSnoop).
	RegionSnoop(g addr.Geometry, r addr.RegionAddr) (present, modifiable bool)
	// ForEachValid visits every valid line.
	ForEachValid(fn func(Line))
	// CountValid returns the number of valid lines.
	CountValid() int
	// SetHooks installs the eviction, allocation and state-change
	// observers (see Cache.OnEvict, OnAllocate and OnStateChange).
	SetHooks(onEvict func(Line, bool), onAllocate func(Line), onStateChange func(l addr.LineAddr, from, to coherence.LineState))
	// BaseStats exposes the hit/miss/eviction counters.
	BaseStats() *Stats
	// Release hands the storage back for reuse (see Cache.Release).
	Release()
}

// Interface conformance for the conventional cache (adapter methods below).
var _ Store = (*Cache)(nil)

// AccessHit implements Store.
func (c *Cache) AccessHit(l addr.LineAddr) bool { return c.Access(l).Valid() }

// SetHooks implements Store.
func (c *Cache) SetHooks(onEvict func(Line, bool), onAllocate func(Line), onStateChange func(l addr.LineAddr, from, to coherence.LineState)) {
	c.OnEvict = onEvict
	c.OnAllocate = onAllocate
	c.OnStateChange = onStateChange
}

// BaseStats implements Store.
func (c *Cache) BaseStats() *Stats { return &c.Stats }

// sector is one sectored-cache entry: a single tag covering several lines.
// The lines' coherence states live in the cache's states array.
type sector struct {
	base  addr.LineAddr // sector-aligned address
	valid bool
	lru   uint64
}

// Sectored is a sectored (sub-blocked) cache: one tag per sector of
// several lines. Sectoring cuts tag storage, but a sector occupies its
// full data footprint however few of its lines are valid — the internal
// fragmentation that raises miss ratios in the paper's related work
// (Liptay; Hill & Smith; Seznec), and the contrast to CGCT, which tracks
// regions *beyond* the cache without restricting placement inside it.
type Sectored struct {
	name        string
	assoc       int
	lineShift   uint
	sectorShift uint
	linesPerSec int
	setMask     uint64
	ways        []sector              // numSets * assoc sectors, set-major
	states      []coherence.LineState // linesPerSec line states per way, in way order
	lruTick     uint64

	onEvict       func(Line, bool)
	onAllocate    func(Line)
	onStateChange func(l addr.LineAddr, from, to coherence.LineState)

	stats Stats
}

// sectorPool and statePool recycle the storage of released sectored
// caches into new ones.
var (
	sectorPool recycle.Pool[sector]
	statePool  recycle.Pool[coherence.LineState]
)

// NewSectored builds a sectored cache of sizeBytes data capacity: each of
// the sizeBytes/(sectorBytes*assoc) sets holds assoc sectors of
// sectorBytes/lineBytes lines.
func NewSectored(name string, sizeBytes uint64, assoc int, lineBytes, sectorBytes uint64) *Sectored {
	if assoc <= 0 || !addr.IsPow2(lineBytes) || !addr.IsPow2(sectorBytes) || sectorBytes < lineBytes {
		panic(fmt.Sprintf("cache %s: bad sectored geometry", name))
	}
	numSets := sizeBytes / (sectorBytes * uint64(assoc))
	if numSets == 0 || !addr.IsPow2(numSets) {
		panic(fmt.Sprintf("cache %s: sectored set count %d not a power of two", name, numSets))
	}
	ways := int(numSets) * assoc
	linesPerSec := int(sectorBytes / lineBytes)
	return &Sectored{
		name:        name,
		assoc:       assoc,
		lineShift:   addr.Log2(lineBytes),
		sectorShift: addr.Log2(sectorBytes),
		linesPerSec: linesPerSec,
		setMask:     numSets - 1,
		ways:        sectorPool.Get(ways),
		states:      statePool.Get(ways * linesPerSec),
	}
}

// Release implements Store: it hands the sectors and line states back for
// a later NewSectored to reuse (see Cache.Release).
func (s *Sectored) Release() {
	if s.ways != nil {
		sectorPool.Put(s.ways)
		statePool.Put(s.states)
		s.ways, s.states = nil, nil
	}
}

func (s *Sectored) sectorOf(l addr.LineAddr) addr.LineAddr {
	return addr.LineAddr(uint64(l) >> s.sectorShift << s.sectorShift)
}

// setBase returns the index of the first sector of l's set.
func (s *Sectored) setBase(l addr.LineAddr) int {
	return int((uint64(l)>>s.sectorShift)&s.setMask) * s.assoc
}

// find returns the index of l's sector, or -1 when it is absent.
func (s *Sectored) find(l addr.LineAddr) int {
	base, key := s.setBase(l), s.sectorOf(l)
	for i, sec := range s.ways[base : base+s.assoc] {
		if sec.valid && sec.base == key {
			return base + i
		}
	}
	return -1
}

// lines returns sector w's line states.
func (s *Sectored) lines(w int) []coherence.LineState {
	return s.states[w*s.linesPerSec : (w+1)*s.linesPerSec]
}

// slot returns the index in states of line l in sector w.
func (s *Sectored) slot(w int, l addr.LineAddr) int {
	return w*s.linesPerSec + int((uint64(l)>>s.lineShift)&uint64(s.linesPerSec-1))
}

// touch makes sector w the most recently used.
func (s *Sectored) touch(w int) {
	s.lruTick++
	s.ways[w].lru = s.lruTick
}

// Lookup implements Store.
func (s *Sectored) Lookup(l addr.LineAddr) coherence.LineState {
	if w := s.find(l); w >= 0 {
		return s.states[s.slot(w, l)]
	}
	return coherence.Invalid
}

// AccessHit implements Store.
func (s *Sectored) AccessHit(l addr.LineAddr) bool {
	w := s.find(l)
	if w < 0 || !s.states[s.slot(w, l)].Valid() {
		s.stats.Misses++
		return false
	}
	s.stats.Hits++
	s.touch(w)
	return true
}

// evictSector flushes every valid line of sector w (firing the eviction
// hook per line, so dirty lines are written back) and frees the entry.
func (s *Sectored) evictSector(w int) {
	states := s.lines(w)
	for i, st := range states {
		if !st.Valid() {
			continue
		}
		line := addr.LineAddr(uint64(s.ways[w].base) + uint64(i)<<s.lineShift)
		s.stats.Evictions++
		if st.Dirty() {
			s.stats.DirtyEvicts++
		}
		if s.onEvict != nil {
			s.onEvict(Line{Addr: line, State: st}, true)
		}
		states[i] = coherence.Invalid
	}
	s.ways[w].valid = false
}

// Allocate implements Store. Allocating a line whose sector is absent
// displaces a whole victim sector — the sectored cache's fragmentation
// cost.
func (s *Sectored) Allocate(l addr.LineAddr, st coherence.LineState) Line {
	if !st.Valid() {
		panic(fmt.Sprintf("cache %s: allocating %v in state I", s.name, l))
	}
	w := s.find(l)
	if w < 0 {
		// Victim: the first free sector, else the least recently used one.
		base := s.setBase(l)
		for i := base; i < base+s.assoc; i++ {
			if !s.ways[i].valid {
				w = i
				break
			}
			if w < 0 || s.ways[i].lru < s.ways[w].lru {
				w = i
			}
		}
		if s.ways[w].valid {
			s.evictSector(w)
		}
		s.ways[w].valid = true
		s.ways[w].base = s.sectorOf(l)
	}
	i := s.slot(w, l)
	s.touch(w)
	if s.states[i].Valid() {
		s.rewrite(i, l, st)
		return Line{}
	}
	s.states[i] = st
	if s.onAllocate != nil {
		s.onAllocate(Line{Addr: l, State: st})
	}
	return Line{}
}

// rewrite stores state st in states[i], which holds the valid line l, and
// fires the state-change observer when the state differs.
func (s *Sectored) rewrite(i int, l addr.LineAddr, st coherence.LineState) {
	from := s.states[i]
	s.states[i] = st
	if from != st && s.onStateChange != nil {
		s.onStateChange(l, from, st)
	}
}

// SetState implements Store.
func (s *Sectored) SetState(l addr.LineAddr, st coherence.LineState) {
	w := s.find(l)
	if w < 0 || !s.states[s.slot(w, l)].Valid() {
		return
	}
	if !st.Valid() {
		s.Invalidate(l)
		return
	}
	s.rewrite(s.slot(w, l), l, st)
}

// Invalidate implements Store.
func (s *Sectored) Invalidate(l addr.LineAddr) coherence.LineState {
	w := s.find(l)
	if w < 0 {
		return coherence.Invalid
	}
	i := s.slot(w, l)
	prior := s.states[i]
	if !prior.Valid() {
		return coherence.Invalid
	}
	s.states[i] = coherence.Invalid
	s.stats.Invals++
	if s.onEvict != nil {
		s.onEvict(Line{Addr: l, State: prior}, false)
	}
	return prior
}

// Touch implements Store.
func (s *Sectored) Touch(l addr.LineAddr) {
	if w := s.find(l); w >= 0 {
		s.touch(w)
	}
}

// Promote implements Store. Like SetState+Touch, the state changes only if
// the line itself is valid, but a present sector's replacement position is
// refreshed either way.
func (s *Sectored) Promote(l addr.LineAddr, st coherence.LineState) {
	if !st.Valid() {
		panic(fmt.Sprintf("cache %s: Promote to invalid state", s.name))
	}
	w := s.find(l)
	if w < 0 {
		return
	}
	if i := s.slot(w, l); s.states[i].Valid() {
		s.rewrite(i, l, st)
	}
	s.touch(w)
}

// RegionSnoop implements Store.
func (s *Sectored) RegionSnoop(g addr.Geometry, r addr.RegionAddr) (present, modifiable bool) {
	for i := 0; i < g.LinesPerRegion(); i++ {
		st := s.Lookup(g.LineInRegion(r, i))
		if st.Valid() {
			present = true
			if st.Dirty() || st == coherence.Exclusive {
				return true, true
			}
		}
	}
	return present, false
}

// ForEachValid implements Store.
func (s *Sectored) ForEachValid(fn func(Line)) {
	for w := range s.ways {
		if !s.ways[w].valid {
			continue
		}
		for i, st := range s.lines(w) {
			if st.Valid() {
				fn(Line{Addr: addr.LineAddr(uint64(s.ways[w].base) + uint64(i)<<s.lineShift), State: st})
			}
		}
	}
}

// CountValid implements Store.
func (s *Sectored) CountValid() int {
	n := 0
	s.ForEachValid(func(Line) { n++ })
	return n
}

// SetHooks implements Store.
func (s *Sectored) SetHooks(onEvict func(Line, bool), onAllocate func(Line), onStateChange func(l addr.LineAddr, from, to coherence.LineState)) {
	s.onEvict = onEvict
	s.onAllocate = onAllocate
	s.onStateChange = onStateChange
}

// BaseStats implements Store.
func (s *Sectored) BaseStats() *Stats { return &s.stats }

var _ Store = (*Sectored)(nil)
