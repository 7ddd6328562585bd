// Package topology models the Fireplane-like machine hierarchy: processor
// cores sit on chips, chips hang off data switches, switches sit on boards.
// One memory controller is integrated on each processor chip (UltraSparc-IV
// style), and physical memory is interleaved across controllers at page
// granularity.
//
// The topology answers two questions for the timing model: how far is a
// processor from a memory controller (or another processor), and which
// controller is home for an address.
package topology

import (
	"fmt"

	"cgct/internal/addr"
	"cgct/internal/config"
)

// Topology is an immutable description of the machine hierarchy.
type Topology struct {
	processors       int
	coresPerChip     int
	chipsPerSwitch   int
	switchesPerBoard int
	chips            int

	// chipOf[p] is processor p's chip, and dist[a*chips+b] the distance
	// between chips a and b: every request, transfer and write-back asks
	// for one, so New works them out once.
	chipOf []int
	dist   []config.Distance
}

// New builds a Topology from configuration parameters.
func New(p config.TopologyParams) (*Topology, error) {
	if p.Processors <= 0 || p.CoresPerChip <= 0 || p.ChipsPerSwitch <= 0 || p.SwitchesPerBoard <= 0 {
		return nil, fmt.Errorf("topology: all factors must be positive (%+v)", p)
	}
	t := &Topology{
		processors:       p.Processors,
		coresPerChip:     p.CoresPerChip,
		chipsPerSwitch:   p.ChipsPerSwitch,
		switchesPerBoard: p.SwitchesPerBoard,
		chips:            (p.Processors + p.CoresPerChip - 1) / p.CoresPerChip,
	}
	t.chipOf = make([]int, t.processors)
	for i := range t.chipOf {
		t.chipOf[i] = i / t.coresPerChip
	}
	t.dist = make([]config.Distance, t.chips*t.chips)
	for a := 0; a < t.chips; a++ {
		for b := 0; b < t.chips; b++ {
			t.dist[a*t.chips+b] = t.distanceChips(a, b)
		}
	}
	return t, nil
}

// MustNew is New that panics on error.
func MustNew(p config.TopologyParams) *Topology {
	t, err := New(p)
	if err != nil {
		panic(err)
	}
	return t
}

// Processors returns the processor count.
func (t *Topology) Processors() int { return t.processors }

// MemControllers returns the memory-controller count (one per chip).
func (t *Topology) MemControllers() int { return t.chips }

// ChipOf returns the chip index of processor p.
func (t *Topology) ChipOf(p int) int { return t.chipOf[p] }

// SwitchOfChip returns the data-switch index of chip c.
func (t *Topology) SwitchOfChip(c int) int { return c / t.chipsPerSwitch }

// BoardOfChip returns the board index of chip c.
func (t *Topology) BoardOfChip(c int) int {
	return t.SwitchOfChip(c) / t.switchesPerBoard
}

// distanceChips classifies the distance between two chips.
func (t *Topology) distanceChips(a, b int) config.Distance {
	switch {
	case a == b:
		return config.DistSameChip
	case t.SwitchOfChip(a) == t.SwitchOfChip(b):
		return config.DistSameSwitch
	case t.BoardOfChip(a) == t.BoardOfChip(b):
		return config.DistSameBoard
	default:
		return config.DistRemote
	}
}

// ProcToMem classifies the distance from processor p to memory controller m
// (memory controller m lives on chip m).
func (t *Topology) ProcToMem(p, m int) config.Distance {
	return t.dist[t.chipOf[p]*t.chips+m]
}

// ProcToProc classifies the distance between two processors.
func (t *Topology) ProcToProc(a, b int) config.Distance {
	return t.dist[t.chipOf[a]*t.chips+t.chipOf[b]]
}

// HomeController returns the memory controller that owns address a
// (interleaved across controllers every config.HomeInterleaveBytes).
func (t *Topology) HomeController(a addr.Addr) int {
	return int((uint64(a) / config.HomeInterleaveBytes) % uint64(t.chips))
}

// HomeControllerRegion returns the home controller of a whole region. A
// region never spans controllers because config.Validate bounds regions
// by the interleave granularity (4 KB) and both are power-of-two aligned.
func (t *Topology) HomeControllerRegion(r addr.RegionAddr) int {
	return t.HomeController(addr.Addr(r))
}
