package sim

import (
	"fmt"
	"strings"

	"cgct/internal/addr"
	"cgct/internal/coherence"
	"cgct/internal/core"
	"cgct/internal/event"
	"cgct/internal/stats"
)

// coherenceFabric is the pluggable interconnect + coherence backend. The
// snooping fabric (snoop.go) arbitrates a broadcast address bus; the
// directory fabric (directory.go) sends every request to the line's home
// controller. Both sit under the same Region Coherence Array: the region
// protocol picks the route, the fabric decides what a broadcast, direct
// or local route costs and which messages it generates.
//
// All methods run on the simulator's single event loop; fabrics keep
// per-run state freely. close releases process-wide gauges and must be
// called exactly once, after the run (RunContext defers it).
type coherenceFabric interface {
	// issue enters a request into the fabric at time t (the node-side
	// entry point for misses, store upgrades, prefetches, write-backs).
	issue(n *node, kind coherence.ReqKind, line addr.LineAddr, t event.Cycle, forStore bool)
	// flushWriteback writes a dirty line back on the region-eviction
	// flush path: the victim region entry's controller ID routes the data
	// without any lookup.
	flushWriteback(n *node, line addr.LineAddr, mc int, t event.Cycle)
	// lineEvicted notes a clean line silently leaving n's L2 (capacity
	// eviction or region-eviction flush). The snooping fabric ignores it;
	// the directory fabric sends the home a replacement hint.
	lineEvicted(n *node, line addr.LineAddr)
	// handle dispatches the fabric-owned event op codes (see events.go).
	handle(n *node, now event.Cycle, op uint8, u32 uint32, u64 uint64)
	// collect folds fabric-internal statistics into the run record.
	collect(run *stats.Run)
	// close releases fabric resources (process-wide gauges).
	close()
}

// issueRequest sends a memory request of kind for line into the coherence
// fabric at time t. Under CGCT the region protocol chooses the route
// (broadcast/full-transaction, direct-to-memory, or local completion); the
// baseline always takes the fabric's default path. forStore marks requests
// issued for a store-buffer entry; completion frees the slot.
func (n *node) issueRequest(kind coherence.ReqKind, line addr.LineAddr, t event.Cycle, forStore bool) {
	n.sys.fabric.issue(n, kind, line, t, forStore)
}

// grantedLineState returns the MOESI state a data request acquires its
// line in, given whether other caches keep valid copies afterwards.
func grantedLineState(kind coherence.ReqKind, remoteValid bool) coherence.LineState {
	switch kind {
	case coherence.ReqRead, coherence.ReqPrefetch:
		if remoteValid {
			return coherence.Shared
		}
		return coherence.Exclusive
	case coherence.ReqIFetch:
		return coherence.Shared
	case coherence.ReqReadExcl, coherence.ReqPrefetchExcl, coherence.ReqUpgrade, coherence.ReqDCBZ:
		return coherence.Modified
	default:
		return coherence.Invalid
	}
}

// applyLocalRoute performs a request that completes with no external
// request at all: upgrades, DCBZ and DCBI in an exclusive region.
func (n *node) applyLocalRoute(kind coherence.ReqKind, line addr.LineAddr, region addr.RegionAddr) {
	switch kind {
	case coherence.ReqUpgrade:
		n.l2.Promote(line, coherence.Modified)
		n.sys.trackWrite(n.id, line)
	case coherence.ReqDCBZ:
		n.l2.Allocate(line, coherence.Modified)
		n.sys.trackWrite(n.id, line)
	case coherence.ReqDCBI:
		n.l2.Invalidate(line)
	default:
		panic(fmt.Sprintf("sim: kind %v cannot complete locally", kind))
	}
	if n.rca != nil {
		prev := n.rca.Probe(region).State
		n.rca.SetState(region, n.protocol.AfterDirect(prev, kind, true))
	}
}

// applyDirectRoute performs a request on the direct path (no broadcast,
// no home transaction): the cache and region state change at issue time;
// the returned cycle is when the data (if any) arrives and the caller
// schedules the completion.
func (n *node) applyDirectRoute(kind coherence.ReqKind, line addr.LineAddr, region addr.RegionAddr, mc int, t event.Cycle) event.Cycle {
	s := n.sys
	prev := core.RegionInvalid
	exclusiveRegion := true // RegionScout only routes direct in unshared regions
	if n.rca != nil {
		prev = n.rca.Probe(region).State
		exclusiveRegion = prev.Exclusive()
	}
	dist := s.topo.ProcToMem(n.id, mc)
	reqLat := s.cfg.Net.DirectRequestLatency(dist)
	arrive := t + event.Cycle(reqLat)

	switch kind {
	case coherence.ReqRead, coherence.ReqPrefetch, coherence.ReqIFetch,
		coherence.ReqReadExcl, coherence.ReqPrefetchExcl:
		// Exclusive regions grant reads exclusively; externally clean
		// regions grant shared copies (instruction fetches, and loads under
		// the §3.1 read-shared alternative).
		granted := grantedLineState(kind, !exclusiveRegion)
		if s.DebugChecks {
			// A direct exclusive grant requires no remote copies at all; a
			// direct shared grant only requires that memory is current (no
			// remote modifiable copy).
			valid, writable := s.lineStateAnywhere(n.id, line)
			if granted == coherence.Shared && writable {
				coherence.Violate(coherence.InvariantError{
					Check: "direct-route", Cycle: uint64(t), Line: uint64(line), Region: uint64(region),
					States: granted.String(),
					Detail: fmt.Sprintf("p%d direct shared read with a remote writable copy", n.id),
				})
			}
			if granted != coherence.Shared && valid {
				coherence.Violate(coherence.InvariantError{
					Check: "direct-route", Cycle: uint64(t), Line: uint64(line), Region: uint64(region),
					States: granted.String(),
					Detail: fmt.Sprintf("p%d direct exclusive grant with remote copies", n.id),
				})
			}
		}
		n.l2.Allocate(line, granted)
		if granted == coherence.Modified {
			s.trackWrite(n.id, line)
		}
		ready := s.mcs[mc].Read(arrive, true, 0)
		ready += event.Cycle(s.cfg.Net.TransferLatency(dist))
		arrive = s.dnet.Deliver(n.id, ready)
		if n.rca != nil {
			n.rca.SetState(region, n.protocol.AfterDirect(prev, kind, granted == coherence.Exclusive || granted == coherence.Modified))
		}
	case coherence.ReqDCBF:
		if s.DebugChecks {
			if valid, _ := s.lineStateAnywhere(n.id, line); valid {
				coherence.Violate(coherence.InvariantError{
					Check: "direct-route", Cycle: uint64(t), Line: uint64(line), Region: uint64(region),
					Detail: fmt.Sprintf("p%d direct DCBF with remote copies", n.id),
				})
			}
		}
		if st := n.l2.Lookup(line); st.Valid() {
			if st.Dirty() {
				s.mcs[mc].Write(arrive, true)
			}
			n.l2.Invalidate(line)
		}
		if n.rca != nil {
			n.rca.SetState(region, n.protocol.AfterDirect(prev, kind, false))
		}
	default:
		panic(fmt.Sprintf("sim: kind %v cannot be routed direct", kind))
	}
	return arrive
}

// applyExternalRegion runs the Figure 5 external-request transition of
// o's region entry (if any) for an observed request of kind: downgrade, or
// self-invalidate when the region holds no cached lines. Every site that
// makes a remote processor observe a region-touching event — snoop-bus
// broadcasts, region probes, directory region notifications — funnels
// through here so the bookkeeping cannot drift between fabrics.
// It reports whether o held an entry for the region.
func applyExternalRegion(o *node, region addr.RegionAddr, kind coherence.ReqKind, requesterExclusive bool) bool {
	if o.rca == nil {
		return false
	}
	e := o.rca.Probe(region)
	if !e.State.Valid() {
		return false
	}
	next, outcome := o.protocol.AfterExternal(e.State, kind, requesterExclusive, e.LineCount)
	if outcome == core.ExtSelfInvalidated {
		o.rca.Stats.SelfInvals++
		o.rca.SetState(region, core.RegionInvalid)
	} else if next != e.State {
		o.rca.SetState(region, next)
	}
	return true
}

// applyBroadcastResponse runs the requester-side region transition for a
// completed broadcast, probe, or directory home transaction (Figures 3
// and 4): build the combined snoop response, consult AfterBroadcast, and
// update — or allocate — the region entry. It reports whether a new entry
// was allocated (allocation may displace a victim region, whose lines the
// RCA's OnEvict hook flushes first). Both fabrics and the region-probe
// path share this one constructor so the response fields cannot drift.
func (n *node) applyBroadcastResponse(region addr.RegionAddr, kind coherence.ReqKind, requesterExclusive, regionClean, regionDirty bool, owner int) bool {
	resp := coherence.SnoopResponse{RegionClean: regionClean, RegionDirty: regionDirty, OwnerID: owner}
	prev := n.rca.Probe(region).State
	next := n.protocol.AfterBroadcast(prev, kind, requesterExclusive, resp)
	if !next.Valid() {
		return false
	}
	if prev.Valid() {
		n.rca.SetState(region, next)
		return false
	}
	n.rca.Allocate(region, next)
	return true
}

// observeRemoteRegion gathers the region snoop response from every node
// but the requester: whether any remote cache holds clean lines of the
// region, and whether any holds modifiable ones. Each remote RCA entry's
// line counts are that node's response; a node with no entry, or one
// counting no lines, caches none of the region (RCA inclusion). Every node
// has an RCA here: only a requester with one gathers a region response,
// and all nodes share one configuration.
//
// It reads the entries from one scan of the RCA bank, and appends the
// remote nodes holding an entry for the region to holders, in node order,
// and returns the grown slice, so the caller's region notifications visit
// exactly those nodes. Pure observation — used by paths that have no
// broadcast snoop phase (region probes, the directory fabric); it must
// run before any line action mutates the caches.
func (s *System) observeRemoteRegion(exclude int, region addr.RegionAddr, holders []*node) (regionClean, regionDirty bool, _ []*node) {
	s.scan.reset()
	for _, h := range s.scanRegions(region) {
		if h.Index == exclude {
			continue
		}
		holders = append(holders, s.nodes[h.Index])
		if h.Entry.LineCount == 0 {
			continue
		}
		if h.Entry.ModLines > 0 {
			regionDirty = true
		} else {
			regionClean = true
		}
	}
	if s.DebugChecks {
		s.checkSnoopScan(exclude, 0, region, s.queue.Now())
	}
	return regionClean, regionDirty, holders
}

// completeFill finishes a request: fill the L1s for demand kinds, release
// the MSHR, wake waiters, and resume the processor if it stalled on this
// line.
func (n *node) completeFill(kind coherence.ReqKind, line addr.LineAddr, now event.Cycle, forStore bool) {
	n.outstanding--
	if n.outstanding < 0 {
		panic("sim: outstanding request underflow")
	}
	if kind == coherence.ReqRead || kind == coherence.ReqIFetch {
		n.demandCompleted(now)
	}
	if kind.IsPrefetch() {
		n.outstandingPf--
	}
	if n.l2.Lookup(line).Valid() {
		switch kind {
		case coherence.ReqRead:
			n.fillL1D(line, false)
		case coherence.ReqIFetch:
			n.l1i.Allocate(line, coherence.Shared)
		case coherence.ReqReadExcl, coherence.ReqUpgrade, coherence.ReqDCBZ:
			n.fillL1D(line, true)
		}
	}
	if m := n.mshrs.take(line); m != nil {
		// processStore may re-issue on the same line; that opens a fresh
		// mshr, so iterating m.waiters while it happens is safe.
		for _, se := range m.waiters {
			n.processStore(se, now)
		}
		n.mshrs.release(m)
	}
	n.resumeIfWaiting(line, now)
	if forStore {
		n.finishStore(now)
	}
	n.maybeFinish()
}

// checkNonBroadcastSafe asserts (tests only) that completing a request
// with no external request at all was coherent: local completions are only
// legal when no other processor caches the line. (Direct routes are
// checked in applyDirectRoute, where the granted state is known.)
func (s *System) checkNonBroadcastSafe(n *node, kind coherence.ReqKind, line addr.LineAddr, cycle event.Cycle, route string) {
	if valid, writable := s.lineStateAnywhere(n.id, line); valid {
		coherence.Violate(coherence.InvariantError{
			Check: "route-safety", Cycle: uint64(cycle), Line: uint64(line),
			Detail: fmt.Sprintf("p%d %s-routed %v while a remote copy exists (valid=%v writable=%v)",
				n.id, route, kind, valid, writable),
		})
	}
}

// checkLineInvariants asserts (tests only) the MOESI single-writer
// invariants for one line: at most one E/M/O copy system-wide, and an E or
// M copy excludes all other copies.
func (s *System) checkLineInvariants(line addr.LineAddr, cycle event.Cycle) {
	owners, copies := 0, 0
	exclusiveHolder := -1
	var states []string
	for _, o := range s.nodes {
		st := o.l2.Lookup(line)
		if !st.Valid() {
			continue
		}
		copies++
		states = append(states, fmt.Sprintf("p%d=%v", o.id, st))
		switch st {
		case coherence.Exclusive, coherence.Modified:
			owners++
			exclusiveHolder = o.id
		case coherence.Owned:
			owners++
		}
	}
	if owners > 1 {
		coherence.Violate(coherence.InvariantError{
			Check: "line-owners", Cycle: uint64(cycle), Line: uint64(line),
			States: strings.Join(states, " "),
			Detail: fmt.Sprintf("%d owners", owners),
		})
	}
	if exclusiveHolder >= 0 && copies > 1 {
		coherence.Violate(coherence.InvariantError{
			Check: "line-exclusive", Cycle: uint64(cycle), Line: uint64(line),
			States: strings.Join(states, " "),
			Detail: fmt.Sprintf("exclusive at p%d but %d copies exist", exclusiveHolder, copies),
		})
	}
}

// checkSnoopFilter asserts (tests only) the premise of the remote-scan
// filters: a node skipped because its RCA has no entry for the region, an
// entry counting no lines, or a cached-region-hash miss caches no line of
// the region.
func (s *System) checkSnoopFilter(o *node, region addr.RegionAddr, cycle event.Cycle) {
	if p, _ := o.l2.RegionSnoop(s.geom, region); p {
		coherence.Violate(coherence.InvariantError{
			Check: "snoop-filter", Cycle: uint64(cycle), Region: uint64(region),
			Detail: fmt.Sprintf("p%d skipped by the snoop filter but caches lines of the region", o.id),
		})
	}
}

// checkRegionCounts asserts (tests only) that o's RCA entry e, read in
// place of a region snoop, gives the same response as a scan of o's cache:
// lines present iff it counts lines, a modifiable line iff it counts one.
func (s *System) checkRegionCounts(o *node, e core.Entry, cycle event.Cycle) {
	if p, m := o.l2.RegionSnoop(s.geom, e.Region); p != (e.LineCount > 0) || m != (e.ModLines > 0) {
		coherence.Violate(coherence.InvariantError{
			Check: "region-counts", Cycle: uint64(cycle), Region: uint64(e.Region),
			States: e.State.String(),
			Detail: fmt.Sprintf("p%d counts %d lines, %d modifiable, but caches present=%v modifiable=%v",
				o.id, e.LineCount, e.ModLines, p, m),
		})
	}
}

// checkRegionExclusivity asserts (tests only) that no two processors hold
// exclusive region states for the same region simultaneously.
func (s *System) checkRegionExclusivity(region addr.RegionAddr, cycle event.Cycle) {
	holder := -1
	for _, o := range s.nodes {
		if o.rca == nil {
			continue
		}
		e := o.rca.Probe(region)
		if !e.State.Exclusive() {
			continue
		}
		if holder >= 0 {
			coherence.Violate(coherence.InvariantError{
				Check: "region-exclusivity", Cycle: uint64(cycle), Region: uint64(region),
				States: e.State.String(),
				Detail: fmt.Sprintf("processors %d and %d both hold the region exclusively", holder, o.id),
			})
		}
		holder = o.id
	}
}
