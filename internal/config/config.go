// Package config describes the simulated machine. The defaults reproduce
// Table 3 of the paper (a four-processor, Fireplane-like system with
// 1.5 GHz UltraSparc-IV-class processors).
//
// All latencies are stored in CPU cycles. The system (interconnect) clock is
// 150 MHz versus the 1.5 GHz CPU clock, so one system cycle is
// CPUCyclesPerSystemCycle = 10 CPU cycles.
package config

import (
	"fmt"

	"cgct/internal/addr"
)

// CPUCyclesPerSystemCycle is the CPU:system clock ratio (1.5 GHz / 150 MHz).
const CPUCyclesPerSystemCycle = 10

// SysCycles converts system (interconnect) cycles to CPU cycles.
func SysCycles(n uint64) uint64 { return n * CPUCyclesPerSystemCycle }

// Distance classifies how far a requestor is from a responder (a memory
// controller or another processor) in the Fireplane-like hierarchy.
type Distance int

const (
	// DistSameChip: the target is on the requesting processor's own chip
	// (e.g. the on-chip memory controller).
	DistSameChip Distance = iota
	// DistSameSwitch: the target hangs off the same data switch.
	DistSameSwitch
	// DistSameBoard: the target is on the same board, different switch.
	DistSameBoard
	// DistRemote: the target is on another board.
	DistRemote
)

// String names the distance class.
func (d Distance) String() string {
	switch d {
	case DistSameChip:
		return "same-chip"
	case DistSameSwitch:
		return "same-switch"
	case DistSameBoard:
		return "same-board"
	case DistRemote:
		return "remote"
	default:
		return fmt.Sprintf("Distance(%d)", int(d))
	}
}

// CacheParams describes one cache level.
type CacheParams struct {
	SizeBytes uint64
	Assoc     int
	LineBytes uint64
	LatencyCy uint64 // access latency in CPU cycles
}

// Sets returns the number of sets implied by the parameters.
func (c CacheParams) Sets() uint64 { return c.SizeBytes / (c.LineBytes * uint64(c.Assoc)) }

// Validate checks the parameters are internally consistent.
func (c CacheParams) Validate(name string) error {
	if !addr.IsPow2(c.LineBytes) {
		return fmt.Errorf("config: %s line size %d not a power of two", name, c.LineBytes)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("config: %s associativity %d invalid", name, c.Assoc)
	}
	if c.SizeBytes%(c.LineBytes*uint64(c.Assoc)) != 0 {
		return fmt.Errorf("config: %s size %d not divisible by line*assoc", name, c.SizeBytes)
	}
	if !addr.IsPow2(c.Sets()) {
		return fmt.Errorf("config: %s set count %d not a power of two", name, c.Sets())
	}
	return nil
}

// RegionScoutParams configures the RegionScout comparison technique
// (Moshovos, ISCA 2005; §2 of the paper): an untagged Cached Region Hash
// plus a small Not-Shared Region Table instead of a tagged RCA.
type RegionScoutParams struct {
	Enabled     bool
	NSRTEntries uint64 // tagged not-shared-region table entries (64 in the paper's range)
	NSRTAssoc   int
	CRHCounters uint64 // untagged cached-region-hash counters
}

// HomeInterleaveBytes is the granularity at which physical memory is
// interleaved across memory controllers (4 KB pages; the paper notes the
// OS makes no locality-aware placement, so interleaving is a fair model).
// Validate bounds a region by it, so a region never spans controllers.
const HomeInterleaveBytes = 4096

// MaxDirectoryProcessors is the largest machine the directory fabric
// models: its full-map sharer mask (internal/directory) holds one bit per
// processor and is sized from this bound.
const MaxDirectoryProcessors = 128

// RCAParams describes the Region Coherence Array.
type RCAParams struct {
	Sets        uint64 // number of sets (paper: 8192, or 4096 for the half-size study)
	Assoc       int    // paper: 2
	RegionBytes uint64 // 256, 512 or 1024; at most HomeInterleaveBytes
	// ThreeState selects the scaled-back protocol of §3.4: a single
	// region-cached snoop-response bit and only exclusive / not-exclusive /
	// invalid region states.
	ThreeState bool
	// ReadSharedDirect selects the §3.1 design alternative: loads in
	// externally clean regions fetch a Shared copy directly from memory
	// instead of broadcasting for an exclusive one (at the cost of later
	// upgrades). Ignored when ThreeState is set.
	ReadSharedDirect bool
}

// Entries returns the total entry count.
func (r RCAParams) Entries() uint64 { return r.Sets * uint64(r.Assoc) }

// InterconnectParams carries the Fireplane-like latency model (Table 3),
// in CPU cycles.
type InterconnectParams struct {
	SnoopLatency        uint64 // address broadcast + snoop: 16 system cycles (106 ns)
	DRAMLatency         uint64 // full DRAM access: 16 system cycles (106 ns)
	DRAMOverlapExtra    uint64 // DRAM beyond the snoop when overlapped: 7 system cycles (47 ns)
	TransferSameSwitch  uint64 // critical word, same data switch: 3 system cycles (20 ns)
	TransferSameBoard   uint64 // critical word, same board: 7 system cycles (47 ns)
	TransferRemote      uint64 // critical word, remote board: 12 system cycles (80 ns)
	DirectReqSameChip   uint64 // direct request to own memory controller: 1 CPU cycle
	DirectReqSameSwitch uint64 // 2 system cycles (13 ns)
	DirectReqSameBoard  uint64 // 4 system cycles (27 ns)
	DirectReqRemote     uint64 // 6 system cycles (40 ns)
	// AddressBusSysCycles is the occupancy of one broadcast slot on the
	// ordered address network, in system cycles. Queuing delay emerges when
	// broadcasts arrive faster than one per slot.
	AddressBusSysCycles uint64
	// DataBusBytesPerSysCycle is the per-processor data network bandwidth
	// (Table 3: 2.4 GB/s = 16 B per system cycle).
	DataBusBytesPerSysCycle uint64
	// MemCtrlBanks bounds concurrent DRAM accesses per controller; extra
	// requests queue.
	MemCtrlBanks int
	// DRAMBankOccupancy is how long one access keeps a bank busy (the
	// burst time), shorter than the access latency because DRAM pipelines
	// requests.
	DRAMBankOccupancy uint64
	// DirectoryLatency is the directory lookup/update time at a home
	// controller (directory mode only), in CPU cycles.
	DirectoryLatency uint64
}

// TransferLatency returns the critical-word transfer latency for a distance.
func (p InterconnectParams) TransferLatency(d Distance) uint64 {
	switch d {
	case DistSameChip, DistSameSwitch:
		return p.TransferSameSwitch
	case DistSameBoard:
		return p.TransferSameBoard
	default:
		return p.TransferRemote
	}
}

// DirectRequestLatency returns the direct-request latency for a distance.
func (p InterconnectParams) DirectRequestLatency(d Distance) uint64 {
	switch d {
	case DistSameChip:
		return p.DirectReqSameChip
	case DistSameSwitch:
		return p.DirectReqSameSwitch
	case DistSameBoard:
		return p.DirectReqSameBoard
	default:
		return p.DirectReqRemote
	}
}

// ProcessorParams abstracts the out-of-order core (Table 3's pipeline is
// collapsed into a commit-width + outstanding-miss model).
type ProcessorParams struct {
	CommitWidth    int // instructions retired per cycle for non-memory gaps (4)
	MaxOutstanding int // total in-flight fabric requests (gates prefetching)
	// DemandOverlap is how many demand (load/ifetch) misses may be in
	// flight before the core stalls — the memory-level parallelism the
	// out-of-order window extracts (stall-on-Nth-miss model).
	DemandOverlap    int
	StoreBufferSize  int // entries in the store buffer
	PrefetchStreams  int // Power4-style stream prefetcher streams (8)
	PrefetchRunahead int // lines of runahead per stream (5)
	// PrefetchRegionFilter enables the §6 extension: prefetches into
	// externally dirty regions are suppressed (their lines are likely to
	// be stolen back before use), and prefetches into exclusive regions go
	// directly to memory anyway. Only meaningful with CGCT enabled.
	PrefetchRegionFilter bool
	// RegionPrefetch enables the other §6 extension: when a sequential
	// stream allocates a new region entry, the global state of the next
	// region is probed ahead of time, so the stream's first touch there
	// can already go direct. Only meaningful with CGCT enabled.
	RegionPrefetch bool
}

// TopologyParams describes the machine hierarchy (Table 3: 2 cores per chip,
// 2 chips per data switch; boards group switches).
type TopologyParams struct {
	Processors       int
	CoresPerChip     int
	ChipsPerSwitch   int
	SwitchesPerBoard int
}

// Chips returns the number of processor chips.
func (t TopologyParams) Chips() int {
	return (t.Processors + t.CoresPerChip - 1) / t.CoresPerChip
}

// Config is the full machine description.
type Config struct {
	Topology TopologyParams
	Proc     ProcessorParams

	L1I CacheParams
	L1D CacheParams
	L2  CacheParams

	RCA RCAParams
	// CGCTEnabled selects between the baseline (always broadcast) and the
	// Coarse-Grain Coherence Tracking system.
	CGCTEnabled bool
	// Directory replaces the Fireplane-like snooping bus (MOESI lines
	// over an ordered, broadcast address network) with a full-map
	// directory at the home memory controllers: every request is a
	// point-to-point message to the line's home, cache-to-cache transfers
	// take three hops, and invalidations are explicit message exchanges
	// (MESI lines; the owner writes back to home while forwarding). It is
	// the comparison system of the paper's introduction and composes with
	// CGCTEnabled, which then tracks region grants at the home controllers
	// instead of filtering broadcasts.
	Directory bool
	// Scout enables the RegionScout comparison technique. Mutually
	// exclusive with CGCTEnabled and the directory fabric.
	Scout RegionScoutParams
	// L2SectorBytes, when non-zero, replaces the L2 with a sectored
	// (sub-blocked) cache of the same data capacity: one tag per sector of
	// this many bytes — the related-work alternative whose internal
	// fragmentation raises miss ratios (§2).
	L2SectorBytes uint64

	Net InterconnectParams

	// PerturbMaxCycles adds a uniform random delay in [0, PerturbMaxCycles]
	// to each memory request's issue, the Alameldeen-style perturbation used
	// to generate confidence intervals across seeds. Zero disables it.
	PerturbMaxCycles uint64
}

// BatchHorizon returns how far (CPU cycles) a node may run ahead of
// global time while hitting in its own caches: the minimum latency after
// which an event on one node can first affect another. On the snooping
// fabric a cross-node effect needs a bus grant plus the snoop latency,
// and a direct request cannot deliver data before the direct-request
// floor plus a DRAM access; the directory fabric's floor is a same-chip
// direct request plus the home directory lookup. A zero horizon stops
// run-ahead: every node then yields after each op.
//
// The horizon does change results. The bus, memory-controller banks and
// data links are busy-until counters served in call order, so a node
// running ahead reserves them at future times and an earlier request
// called later queues behind it; horizon 0 gives different Fig 8
// numbers than the default (see DESIGN §5).
func (c Config) BatchHorizon() uint64 {
	if c.Directory {
		return c.Net.DirectReqSameChip + c.Net.DirectoryLatency
	}
	direct := c.Net.DirectReqSameChip + c.Net.DRAMLatency
	if c.Net.SnoopLatency < direct {
		return c.Net.SnoopLatency
	}
	return direct
}

// Default returns the Table 3 configuration: four processors, Fireplane-like
// interconnect, 512 B regions, CGCT disabled (baseline).
func Default() Config {
	return Config{
		Topology: TopologyParams{
			Processors:       4,
			CoresPerChip:     2,
			ChipsPerSwitch:   2,
			SwitchesPerBoard: 2,
		},
		Proc: ProcessorParams{
			CommitWidth:      4,
			MaxOutstanding:   8,
			DemandOverlap:    3,
			StoreBufferSize:  32,
			PrefetchStreams:  8,
			PrefetchRunahead: 5,
		},
		L1I: CacheParams{SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64, LatencyCy: 1},
		L1D: CacheParams{SizeBytes: 64 << 10, Assoc: 4, LineBytes: 64, LatencyCy: 1},
		L2:  CacheParams{SizeBytes: 1 << 20, Assoc: 2, LineBytes: 64, LatencyCy: 12},
		RCA: RCAParams{Sets: 8192, Assoc: 2, RegionBytes: 512},
		Net: InterconnectParams{
			SnoopLatency:            SysCycles(16),
			DRAMLatency:             SysCycles(16),
			DRAMOverlapExtra:        SysCycles(7),
			TransferSameSwitch:      SysCycles(3),
			TransferSameBoard:       SysCycles(7),
			TransferRemote:          SysCycles(12),
			DirectReqSameChip:       1,
			DirectReqSameSwitch:     SysCycles(2),
			DirectReqSameBoard:      SysCycles(4),
			DirectReqRemote:         SysCycles(6),
			AddressBusSysCycles:     1,
			DataBusBytesPerSysCycle: 16,
			MemCtrlBanks:            4,
			DRAMBankOccupancy:       SysCycles(4),
			DirectoryLatency:        SysCycles(2),
		},
		PerturbMaxCycles: 0,
	}
}

// WithRegionScout returns a copy with RegionScout enabled at the given
// region size. The structures stay RegionScout-cheap — the CRH must be
// larger than the number of regions resident in the cache (a 1 MB cache
// holds up to 2048 distinct 512 B regions) or every counter saturates and
// no region ever reports globally missing; 4096 six-bit counters are
// ~3 KB against the RCA's ~73 KB.
func (c Config) WithRegionScout(regionBytes uint64) Config {
	c.Scout = RegionScoutParams{Enabled: true, NSRTEntries: 128, NSRTAssoc: 4, CRHCounters: 4096}
	c.RCA.RegionBytes = regionBytes
	return c
}

// WithCGCT returns a copy with CGCT enabled and the given region size.
func (c Config) WithCGCT(regionBytes uint64) Config {
	c.CGCTEnabled = true
	c.RCA.RegionBytes = regionBytes
	return c
}

// WithRCASets returns a copy with the RCA set count overridden (the Figure 9
// half-size study uses 4096 sets).
func (c Config) WithRCASets(sets uint64) Config {
	c.RCA.Sets = sets
	return c
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.Topology.Processors <= 0 {
		return fmt.Errorf("config: need at least one processor")
	}
	if c.Topology.CoresPerChip <= 0 || c.Topology.ChipsPerSwitch <= 0 || c.Topology.SwitchesPerBoard <= 0 {
		return fmt.Errorf("config: topology factors must be positive")
	}
	if err := c.L1I.Validate("L1I"); err != nil {
		return err
	}
	if err := c.L1D.Validate("L1D"); err != nil {
		return err
	}
	if err := c.L2.Validate("L2"); err != nil {
		return err
	}
	if c.L1I.LineBytes != c.L2.LineBytes || c.L1D.LineBytes != c.L2.LineBytes {
		return fmt.Errorf("config: all cache levels must share one line size")
	}
	if c.CGCTEnabled {
		if !addr.IsPow2(c.RCA.RegionBytes) || c.RCA.RegionBytes < c.L2.LineBytes {
			return fmt.Errorf("config: region size %d invalid (must be power of two >= line size)", c.RCA.RegionBytes)
		}
		if !addr.IsPow2(c.RCA.Sets) || c.RCA.Assoc <= 0 {
			return fmt.Errorf("config: RCA geometry invalid (%d sets, %d ways)", c.RCA.Sets, c.RCA.Assoc)
		}
	}
	if c.Proc.CommitWidth <= 0 || c.Proc.MaxOutstanding <= 0 || c.Proc.StoreBufferSize <= 0 || c.Proc.DemandOverlap <= 0 {
		return fmt.Errorf("config: processor window parameters must be positive")
	}
	if c.Net.MemCtrlBanks <= 0 {
		return fmt.Errorf("config: MemCtrlBanks must be positive")
	}
	if c.L2SectorBytes != 0 {
		if !addr.IsPow2(c.L2SectorBytes) || c.L2SectorBytes < c.L2.LineBytes {
			return fmt.Errorf("config: L2 sector size %d invalid", c.L2SectorBytes)
		}
	}
	if c.Directory {
		if c.Topology.Processors > MaxDirectoryProcessors {
			return fmt.Errorf("config: the directory fabric tracks at most %d processors, got %d", MaxDirectoryProcessors, c.Topology.Processors)
		}
		if c.Proc.RegionPrefetch {
			return fmt.Errorf("config: region-state prefetch probes require the snooping fabric")
		}
	}
	if c.Scout.Enabled {
		if c.CGCTEnabled || c.Directory {
			return fmt.Errorf("config: RegionScout is mutually exclusive with CGCT and the directory fabric")
		}
		if !addr.IsPow2(c.Scout.NSRTEntries) || c.Scout.NSRTAssoc <= 0 ||
			c.Scout.NSRTEntries%uint64(c.Scout.NSRTAssoc) != 0 || !addr.IsPow2(c.Scout.CRHCounters) {
			return fmt.Errorf("config: RegionScout geometry invalid (%+v)", c.Scout)
		}
		if !addr.IsPow2(c.RCA.RegionBytes) || c.RCA.RegionBytes < c.L2.LineBytes {
			return fmt.Errorf("config: region size %d invalid for RegionScout", c.RCA.RegionBytes)
		}
	}
	// A larger region's lines would have several homes, while
	// region-eviction flushes and the directory's region fast paths
	// address the region's one home.
	if (c.CGCTEnabled || c.Scout.Enabled) && c.RCA.RegionBytes > HomeInterleaveBytes {
		return fmt.Errorf("config: region size %d exceeds the %d-byte home interleave", c.RCA.RegionBytes, HomeInterleaveBytes)
	}
	return nil
}

// WithDirectory returns a copy running on the full-map directory fabric.
func (c Config) WithDirectory() Config {
	c.Directory = true
	return c
}

// Geometry builds the line/region geometry for this configuration. For
// baseline runs (no RCA) the region size still defines the granularity used
// by statistics.
func (c Config) Geometry() (addr.Geometry, error) {
	rb := c.RCA.RegionBytes
	if rb == 0 {
		rb = 512
	}
	return addr.NewGeometry(c.L2.LineBytes, rb)
}
