// Package addr provides physical-address arithmetic for the simulated
// machine: cache-line and region alignment, tag/index extraction, and the
// segment arithmetic used by the workload generators.
//
// The simulated machine uses 40-bit physical addresses (the paper assumes a
// system with up to 16 GB of DRAM per processor chip and at least 40 address
// bits). Addresses are carried in a uint64; bits above PhysAddrBits must be
// zero.
package addr

import "fmt"

// PhysAddrBits is the width of a physical address in the modelled system.
const PhysAddrBits = 40

// PhysAddrMask masks a uint64 down to a valid physical address.
const PhysAddrMask = (uint64(1) << PhysAddrBits) - 1

// The tag words of the simulated caches and RCAs keep a way's last-use
// tick in the 24 bits above the physical address. TickMax is the largest
// tick a word can hold; a structure whose counter reaches it renumbers
// its ticks.
const (
	TickShift = PhysAddrBits
	TickMax   = uint64(1)<<(64-TickShift) - 1
)

// Addr is a physical byte address.
type Addr uint64

// String formats the address in hex.
func (a Addr) String() string { return fmt.Sprintf("0x%010x", uint64(a)) }

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v uint64) bool { return v != 0 && v&(v-1) == 0 }

// Log2 returns log2(v) for a power-of-two v.
func Log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// LineAddr identifies a cache line: the address with the low line-offset
// bits cleared.
type LineAddr uint64

// RegionAddr identifies an aligned region: the address with the low
// region-offset bits cleared.
type RegionAddr uint64

// Geometry captures the line/region granularity of the machine and
// pre-computes the shift amounts. The zero value is not usable; build one
// with NewGeometry.
type Geometry struct {
	LineBytes    uint64 // bytes per cache line (power of two)
	RegionBytes  uint64 // bytes per region (power of two, >= LineBytes)
	lineShift    uint
	regionShift  uint
	linesPerReg  uint64
	lineInRegBit uint64
}

// NewGeometry validates and builds a Geometry.
func NewGeometry(lineBytes, regionBytes uint64) (Geometry, error) {
	if !IsPow2(lineBytes) {
		return Geometry{}, fmt.Errorf("addr: line size %d is not a power of two", lineBytes)
	}
	if !IsPow2(regionBytes) {
		return Geometry{}, fmt.Errorf("addr: region size %d is not a power of two", regionBytes)
	}
	if regionBytes < lineBytes {
		return Geometry{}, fmt.Errorf("addr: region size %d smaller than line size %d", regionBytes, lineBytes)
	}
	g := Geometry{
		LineBytes:   lineBytes,
		RegionBytes: regionBytes,
		lineShift:   Log2(lineBytes),
		regionShift: Log2(regionBytes),
	}
	g.linesPerReg = regionBytes / lineBytes
	g.lineInRegBit = g.linesPerReg - 1
	return g, nil
}

// MustGeometry is NewGeometry that panics on error; for tests and fixed
// configurations.
func MustGeometry(lineBytes, regionBytes uint64) Geometry {
	g, err := NewGeometry(lineBytes, regionBytes)
	if err != nil {
		panic(err)
	}
	return g
}

// LineShift returns log2(line bytes).
func (g Geometry) LineShift() uint { return g.lineShift }

// RegionShift returns log2(region bytes).
func (g Geometry) RegionShift() uint { return g.regionShift }

// LinesPerRegion returns the number of cache lines in one region.
func (g Geometry) LinesPerRegion() int { return int(g.linesPerReg) }

// Line returns the line address containing a.
func (g Geometry) Line(a Addr) LineAddr {
	return LineAddr(uint64(a) >> g.lineShift << g.lineShift)
}

// Region returns the region address containing a.
func (g Geometry) Region(a Addr) RegionAddr {
	return RegionAddr(uint64(a) >> g.regionShift << g.regionShift)
}

// RegionOfLine returns the region containing line l.
func (g Geometry) RegionOfLine(l LineAddr) RegionAddr {
	return RegionAddr(uint64(l) >> g.regionShift << g.regionShift)
}

// LineIndexInRegion returns the position (0-based) of line l within its
// region.
func (g Geometry) LineIndexInRegion(l LineAddr) int {
	return int((uint64(l) >> g.lineShift) & g.lineInRegBit)
}

// LineInRegion returns the i'th line of region r.
func (g Geometry) LineInRegion(r RegionAddr, i int) LineAddr {
	return LineAddr(uint64(r) + uint64(i)<<g.lineShift)
}

// SameRegion reports whether two addresses fall in the same region.
func (g Geometry) SameRegion(a, b Addr) bool { return g.Region(a) == g.Region(b) }

// Segment is a contiguous range of physical memory used by the workload
// generators to carve the address space into private heaps, shared tables,
// code, and OS page pools.
type Segment struct {
	Base Addr   // first byte (should be region-aligned for clean stats)
	Size uint64 // length in bytes
}

// Contains reports whether a falls inside the segment.
func (s Segment) Contains(a Addr) bool {
	return uint64(a) >= uint64(s.Base) && uint64(a) < uint64(s.Base)+s.Size
}

// End returns one past the last byte of the segment.
func (s Segment) End() Addr { return Addr(uint64(s.Base) + s.Size) }

// At returns the address at byte offset off within the segment, wrapping at
// the segment size so generators can index with unbounded counters.
func (s Segment) At(off uint64) Addr {
	if s.Size == 0 {
		return s.Base
	}
	return Addr(uint64(s.Base) + off%s.Size)
}

// Slot divides the segment into equal slots of slotSize bytes and returns
// slot i (wrapping). Useful for record/page-grained access patterns.
func (s Segment) Slot(i uint64, slotSize uint64) Segment {
	if slotSize == 0 || slotSize > s.Size {
		return s
	}
	n := s.Size / slotSize
	return Segment{Base: Addr(uint64(s.Base) + (i%n)*slotSize), Size: slotSize}
}

// Carve splits the given budget of memory starting at *next into a Segment,
// aligning the base up to align bytes, and advances *next. It is the
// allocation primitive the workload layouts use.
func Carve(next *Addr, size, align uint64) Segment {
	if align == 0 {
		align = 1
	}
	base := (uint64(*next) + align - 1) / align * align
	*next = Addr(base + size)
	return Segment{Base: Addr(base), Size: size}
}
