package cache

import (
	"fmt"

	"cgct/internal/addr"
	"cgct/internal/coherence"
)

// Holder is one cache of a machine that holds a line, and the line's state
// there.
type Holder struct {
	Index int // the cache's index in its Bank (its node)
	State coherence.LineState
}

// Bank is n caches of one geometry whose tag words share one array,
// interleaved set-major then cache: way w of set s of cache i is word
// (s·n+i)·assoc+w. The n copies of a set then sit side by side, so
// Holders answers a snoop of every cache with one scan of n·assoc words,
// while each cache, a strided view (Cache), still probes its own assoc
// consecutive words.
type Bank struct {
	caches    []*Cache
	tags      []uint64
	assoc     int
	setWords  int // n·assoc: the words of one set across the bank
	lineShift uint
	setMask   uint64
}

// NewBank builds n caches, cache i named p<i>.<name>, each of sizeBytes
// with the given associativity and line size. Panics on invalid geometry.
// Its tag array may be one a released bank handed back, zeroed.
func NewBank(name string, n int, sizeBytes uint64, assoc int, lineBytes uint64) *Bank {
	sets := setCount(name, sizeBytes, assoc, lineBytes)
	b := &Bank{
		tags:      tagPool.Get(int(sets) * n * assoc),
		assoc:     assoc,
		setWords:  n * assoc,
		lineShift: addr.Log2(lineBytes),
		setMask:   sets - 1,
	}
	for i := 0; i < n; i++ {
		b.caches = append(b.caches, &Cache{
			name:      fmt.Sprintf("p%d.%s", i, name),
			assoc:     assoc,
			stride:    b.setWords,
			offset:    i * assoc,
			banked:    true,
			lineShift: b.lineShift,
			setMask:   b.setMask,
			tags:      b.tags,
		})
	}
	return b
}

// Store returns cache i as a Store.
func (b *Bank) Store(i int) Store { return b.caches[i] }

// Holders appends to dst, in cache order, every cache of the bank that
// holds line l, with the line's state there, and returns the grown slice.
// It scans l's set across the bank once; a line sits in at most one way of
// each cache, so each holder appears once.
func (b *Bank) Holders(l addr.LineAddr, dst []Holder) []Holder {
	key := uint64(l)
	base := int((key>>b.lineShift)&b.setMask) * b.setWords
	for j, w := range b.tags[base : base+b.setWords] {
		if w&addrMask == key && w&stateMask != 0 {
			dst = append(dst, Holder{Index: j / b.assoc, State: coherence.LineState(w & stateMask)})
		}
	}
	return dst
}

// Release hands the tag array back for a later NewBank to reuse. Every
// later probe or update of one of the bank's caches then panics instead of
// reading ways another bank may own; their statistics stay readable. A
// second Release does nothing.
func (b *Bank) Release() {
	if b.tags == nil {
		return
	}
	tagPool.Put(b.tags)
	b.tags = nil
	for _, c := range b.caches {
		c.tags = nil
	}
}

// SectoredBank is n sectored caches of one geometry. Each keeps its own
// arrays, so Holders probes them one by one.
type SectoredBank []*Sectored

// NewSectoredBank builds n sectored caches, cache i named p<i>.<name> (see
// NewSectored).
func NewSectoredBank(name string, n int, sizeBytes uint64, assoc int, lineBytes, sectorBytes uint64) SectoredBank {
	b := make(SectoredBank, n)
	for i := range b {
		b[i] = NewSectored(fmt.Sprintf("p%d.%s", i, name), sizeBytes, assoc, lineBytes, sectorBytes)
	}
	return b
}

// Store returns cache i as a Store.
func (b SectoredBank) Store(i int) Store { return b[i] }

// Holders appends to dst, in cache order, every cache of the bank that
// holds line l, with the line's state there, probing the caches one by
// one, and returns the grown slice.
func (b SectoredBank) Holders(l addr.LineAddr, dst []Holder) []Holder {
	for i, s := range b {
		if st := s.Lookup(l); st.Valid() {
			dst = append(dst, Holder{Index: i, State: st})
		}
	}
	return dst
}

// Release releases every cache of the bank (see Sectored.Release).
func (b SectoredBank) Release() {
	for _, s := range b {
		s.Release()
	}
}
