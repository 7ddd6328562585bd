package cache

import (
	"fmt"

	"cgct/internal/addr"
	"cgct/internal/coherence"
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

// sector is one sectored-cache entry: a single tag covering several lines,
// each with its own coherence state.
type sector struct {
	base   addr.LineAddr // sector-aligned address
	valid  bool
	lru    uint64
	states []coherence.LineState
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
	numSets     uint64
	lineShift   uint
	sectorShift uint
	linesPerSec int
	setMask     uint64
	ways        []sector
	lruTick     uint64

	onEvict       func(Line, bool)
	onAllocate    func(Line)
	onStateChange func(l addr.LineAddr, from, to coherence.LineState)

	stats Stats
}

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
	s := &Sectored{
		name:        name,
		assoc:       assoc,
		numSets:     numSets,
		lineShift:   addr.Log2(lineBytes),
		sectorShift: addr.Log2(sectorBytes),
		linesPerSec: int(sectorBytes / lineBytes),
		setMask:     numSets - 1,
		ways:        make([]sector, numSets*uint64(assoc)),
	}
	for i := range s.ways {
		s.ways[i].states = make([]coherence.LineState, s.linesPerSec)
	}
	return s
}

func (s *Sectored) sectorOf(l addr.LineAddr) addr.LineAddr {
	return addr.LineAddr(uint64(l) >> s.sectorShift << s.sectorShift)
}

func (s *Sectored) lineIdx(l addr.LineAddr) int {
	return int((uint64(l) >> s.lineShift) & uint64(s.linesPerSec-1))
}

func (s *Sectored) set(l addr.LineAddr) []sector {
	idx := (uint64(l) >> s.sectorShift) & s.setMask
	i := idx * uint64(s.assoc)
	return s.ways[i : i+uint64(s.assoc)]
}

func (s *Sectored) find(l addr.LineAddr) *sector {
	base := s.sectorOf(l)
	ws := s.set(l)
	for i := range ws {
		if ws[i].valid && ws[i].base == base {
			return &ws[i]
		}
	}
	return nil
}

// Lookup implements Store.
func (s *Sectored) Lookup(l addr.LineAddr) coherence.LineState {
	if sec := s.find(l); sec != nil {
		return sec.states[s.lineIdx(l)]
	}
	return coherence.Invalid
}

// AccessHit implements Store.
func (s *Sectored) AccessHit(l addr.LineAddr) bool {
	sec := s.find(l)
	if sec == nil || !sec.states[s.lineIdx(l)].Valid() {
		s.stats.Misses++
		return false
	}
	s.stats.Hits++
	s.lruTick++
	sec.lru = s.lruTick
	return true
}

// evictSector flushes every valid line of the victim (firing the eviction
// hook per line, so dirty lines are written back) and frees the entry.
func (s *Sectored) evictSector(sec *sector) {
	for i, st := range sec.states {
		if !st.Valid() {
			continue
		}
		line := addr.LineAddr(uint64(sec.base) + uint64(i)<<s.lineShift)
		s.stats.Evictions++
		if st.Dirty() {
			s.stats.DirtyEvicts++
		}
		if s.onEvict != nil {
			s.onEvict(Line{Addr: line, State: st}, true)
		}
		sec.states[i] = coherence.Invalid
	}
	sec.valid = false
}

// Allocate implements Store. Allocating a line whose sector is absent
// displaces a whole victim sector — the sectored cache's fragmentation
// cost.
func (s *Sectored) Allocate(l addr.LineAddr, st coherence.LineState) Line {
	if !st.Valid() {
		panic(fmt.Sprintf("cache %s: allocating %v in state I", s.name, l))
	}
	sec := s.find(l)
	if sec == nil {
		ws := s.set(l)
		var victim *sector
		for i := range ws {
			if !ws[i].valid {
				victim = &ws[i]
				break
			}
			if victim == nil || ws[i].lru < victim.lru {
				victim = &ws[i]
			}
		}
		if victim.valid {
			s.evictSector(victim)
		}
		victim.valid = true
		victim.base = s.sectorOf(l)
		sec = victim
	}
	idx := s.lineIdx(l)
	s.lruTick++
	sec.lru = s.lruTick
	if sec.states[idx].Valid() {
		s.rewrite(sec, idx, l, st)
		return Line{}
	}
	sec.states[idx] = st
	if s.onAllocate != nil {
		s.onAllocate(Line{Addr: l, State: st})
	}
	return Line{}
}

// rewrite stores state st for the valid line l at index idx of sec and
// fires the state-change observer when the state differs.
func (s *Sectored) rewrite(sec *sector, idx int, l addr.LineAddr, st coherence.LineState) {
	from := sec.states[idx]
	sec.states[idx] = st
	if from != st && s.onStateChange != nil {
		s.onStateChange(l, from, st)
	}
}

// SetState implements Store.
func (s *Sectored) SetState(l addr.LineAddr, st coherence.LineState) {
	sec := s.find(l)
	if sec == nil || !sec.states[s.lineIdx(l)].Valid() {
		return
	}
	if !st.Valid() {
		s.Invalidate(l)
		return
	}
	s.rewrite(sec, s.lineIdx(l), l, st)
}

// Invalidate implements Store.
func (s *Sectored) Invalidate(l addr.LineAddr) coherence.LineState {
	sec := s.find(l)
	if sec == nil {
		return coherence.Invalid
	}
	idx := s.lineIdx(l)
	prior := sec.states[idx]
	if !prior.Valid() {
		return coherence.Invalid
	}
	sec.states[idx] = coherence.Invalid
	s.stats.Invals++
	if s.onEvict != nil {
		s.onEvict(Line{Addr: l, State: prior}, false)
	}
	return prior
}

// Touch implements Store.
func (s *Sectored) Touch(l addr.LineAddr) {
	if sec := s.find(l); sec != nil {
		s.lruTick++
		sec.lru = s.lruTick
	}
}

// Promote implements Store. Like SetState+Touch, the state changes only if
// the line itself is valid, but a present sector's replacement position is
// refreshed either way.
func (s *Sectored) Promote(l addr.LineAddr, st coherence.LineState) {
	if !st.Valid() {
		panic(fmt.Sprintf("cache %s: Promote to invalid state", s.name))
	}
	sec := s.find(l)
	if sec == nil {
		return
	}
	if idx := s.lineIdx(l); sec.states[idx].Valid() {
		s.rewrite(sec, idx, l, st)
	}
	s.lruTick++
	sec.lru = s.lruTick
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
		sec := &s.ways[w]
		if !sec.valid {
			continue
		}
		for i, st := range sec.states {
			if st.Valid() {
				fn(Line{Addr: addr.LineAddr(uint64(sec.base) + uint64(i)<<s.lineShift), State: st})
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
