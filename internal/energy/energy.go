// Package energy quantifies the power discussion of the paper's §6: CGCT
// saves energy by reducing address-network activity, remote tag-array
// lookups and (potentially) DRAM accesses, while the Region Coherence
// Array itself adds lookup energy — "the additional logic may cancel out
// some of that savings".
//
// The paper gives no absolute numbers (it explicitly leaves power to
// future work), so the model uses relative per-event weights, normalised
// to one DRAM access = 100 units. The default weights follow the usual
// rough hierarchy — DRAM ≫ line transfer ≫ broadcast wire traversal ≫
// SRAM tag probe ≫ small-array probe — and every experiment reports the
// breakdown so alternative weights are a one-line change.
package energy

import "cgct/internal/stats"

// Params holds relative per-event energies (one DRAM access = 100).
type Params struct {
	DRAMAccess     float64 // one DRAM read or write burst
	DataTransfer   float64 // one cache line over the data network
	BroadcastHop   float64 // address broadcast reaching one remote node
	DirectRequest  float64 // one point-to-point request message
	TagLookup      float64 // one remote L2 tag-array probe
	RegionLookup   float64 // one RCA / region-filter probe
	DirectoryEntry float64 // one directory lookup/update (directory mode)
}

// Default returns the documented relative weights.
func Default() Params {
	return Params{
		DRAMAccess:     100,
		DataTransfer:   12,
		BroadcastHop:   5,
		DirectRequest:  2,
		TagLookup:      1,
		RegionLookup:   0.2,
		DirectoryEntry: 1,
	}
}

// Breakdown is the per-component energy of one run, in the relative units
// of Params.
type Breakdown struct {
	Network   float64 // address broadcasts + direct request messages
	TagProbes float64 // remote tag-array lookups
	DRAM      float64
	Transfers float64
	Region    float64 // RCA / CRH+NSRT / directory overhead — the "additional logic"
	Total     float64
}

// Compute derives the energy breakdown of a run on a machine with the
// given processor count.
func Compute(run *stats.Run, procs int, p Params) Breakdown {
	var b Breakdown
	hops := float64(procs - 1)
	if hops < 1 {
		hops = 1
	}
	broadcasts := float64(run.TotalBroadcasts()) + float64(run.RegionProbes)
	var directs uint64
	for _, d := range run.Directs {
		directs += d
	}
	b.Network = broadcasts*p.BroadcastHop*hops + float64(directs)*p.DirectRequest +
		float64(run.DirMessages)*p.DirectRequest
	b.TagProbes = float64(run.SnoopTagLookups) * p.TagLookup
	b.DRAM = float64(run.DRAMReads+run.DRAMWrites) * p.DRAMAccess
	b.Transfers = float64(run.DataTransfers) * p.DataTransfer
	// Region-tracking overhead: one probe per fabric request at the
	// requester plus one per remote node snooped (the piggybacked region
	// check), approximated by the recorded lookup counts. A system without
	// any region tracker (the baseline) is charged nothing.
	if run.RCAHits+run.RCAMisses+run.NSRTHits+run.NSRTInserts > 0 {
		regionOps := float64(run.RCAHits+run.RCAMisses) + // requester-side lookups
			float64(run.SnoopTagLookups+run.SnoopTagFiltered) // remote region checks
		b.Region = regionOps * p.RegionLookup
	}
	if run.DirMessages > 0 {
		// Directory mode: charge the home-entry accesses instead.
		b.Region += float64(run.DirMessages) * p.DirectoryEntry
	}
	b.Total = b.Network + b.TagProbes + b.DRAM + b.Transfers + b.Region
	return b
}

// SavingsPct returns the percentage energy reduction of run b relative to
// run a (positive = b cheaper).
func SavingsPct(a, b Breakdown) float64 {
	if a.Total == 0 {
		return 0
	}
	return 100 * (a.Total - b.Total) / a.Total
}
