package sim

import (
	"fmt"

	"cgct/internal/addr"
	"cgct/internal/coherence"
	"cgct/internal/core"
	"cgct/internal/directory"
	"cgct/internal/event"
	"cgct/internal/oracle"
	"cgct/internal/stats"
)

// directoryFabric is the home-node directory backend: instead of
// broadcasting, every request goes to the line's home memory controller,
// which keeps a full-map entry per cached line (internal/directory).
// Cache-to-cache transfers take three hops (requester → home → owner →
// requester), every invalidation is an explicit message exchange, and the
// home pipeline serialises transactions NACK-free.
//
// The directory runs MESI semantics (no Owned state: on a remote dirty
// hit the owner writes back to home while forwarding, the textbook
// protocol), which keeps the directory state machine exact and simple
// without changing what the comparison measures.
//
// CGCT composes with the directory exactly as it does with the bus: the
// RCA routes requests. A region held exclusively never spans home
// controllers (config.Validate bounds a region by the one-page home
// interleave), so the home's per-line records for an exclusively-held
// region cannot be observed by anyone until an external request for the
// region arrives — which itself resolves at the same home. Record
// updates on the local and direct fast paths are therefore modelled as
// synchronous and free: the direct request already travels to the home
// controller (it is the memory controller), and local completions defer
// their record maintenance behind the region grant. What the fast paths
// save is the home-pipeline occupancy and directory latency, not
// correctness.
type directoryFabric struct {
	s    *System
	dirs []*directory.Directory

	// holders is resolve's scratch list of the remote nodes holding an
	// RCA entry for the line's region (observeRemoteRegion).
	holders []*node
	// recorded is resolve's scratch list of the nodes a home record
	// names (directory.Entry.AppendNodes).
	recorded []int
}

func newDirectoryFabric(s *System) *directoryFabric {
	f := &directoryFabric{
		s:        s,
		holders:  make([]*node, 0, s.cfg.Topology.Processors),
		recorded: make([]int, 0, s.cfg.Topology.Processors),
	}
	for i := 0; i < s.topo.MemControllers(); i++ {
		f.dirs = append(f.dirs, directory.New())
	}
	return f
}

// issue implements coherenceFabric. Every request is a point-to-point
// message; under CGCT the region protocol picks between the full home
// transaction and the fast paths.
func (f *directoryFabric) issue(n *node, kind coherence.ReqKind, line addr.LineAddr, t event.Cycle, forStore bool) {
	s := f.s
	t = s.perturb(t)
	s.run.Requests[kind]++

	region := s.geom.RegionOfLine(line)
	route := core.RouteBroadcast
	regionExclusive := false
	if n.rca != nil {
		st := n.rca.Lookup(region).State
		s.run.RegionStateAtLookup[st]++
		route = n.protocol.Route(st, kind)
		regionExclusive = st.Exclusive()
	}

	home := s.topo.HomeController(addr.Addr(line))
	d := f.dirs[home]

	if kind == coherence.ReqWriteback {
		s.run.Directs[kind]++
		s.run.DirMessages++ // data travels with the request
		if regionExclusive {
			// Region-exclusive fast path: no other node can have a
			// transaction in flight for this line, so the record clears
			// without occupying the home pipeline.
			s.run.DirFastPaths++
			f.clearRecord(d, n, line)
			lat := s.cfg.Net.DirectRequestLatency(s.topo.ProcToMem(n.id, home))
			s.mcs[home].Write(t+event.Cycle(lat), true)
			return
		}
		reqLat := s.cfg.Net.DirectRequestLatency(s.topo.ProcToMem(n.id, home))
		arriveHome := d.Admit(t+event.Cycle(reqLat), s.cfg.Net.DirectoryLatency) + event.Cycle(s.cfg.Net.DirectoryLatency)
		s.queue.Schedule(arriveHome, n, nodeOpDirWriteback, 0, uint64(line))
		return
	}

	switch route {
	case core.RouteLocal:
		s.run.LocalDones[kind]++
		if s.DebugChecks {
			s.checkNonBroadcastSafe(n, kind, line, t, "local")
		}
		n.applyLocalRoute(kind, line, region)
		f.recordFastGrant(d, n, kind, line, grantedLineState(kind, false))
		n.outstanding++
		s.queue.Schedule(t, n, nodeOpCompleteFill, packReq(kind, forStore), uint64(line))
	case core.RouteDirect:
		s.run.Directs[kind]++
		s.run.DirFastPaths++
		s.run.DirMessages += 2 // request + reply, but no home-pipeline slot
		n.outstanding++
		arrive := n.applyDirectRoute(kind, line, region, home, t)
		f.recordFastGrant(d, n, kind, line, grantedLineState(kind, !regionExclusive))
		s.queue.Schedule(arrive, n, nodeOpCompleteFill, packReq(kind, forStore), uint64(line))
	default: // full home transaction
		s.run.Directs[kind]++ // still a point-to-point message, never a broadcast
		s.run.DirMessages++
		n.outstanding++
		n.mshrs.open(line)
		reqLat := s.cfg.Net.DirectRequestLatency(s.topo.ProcToMem(n.id, home))
		arriveHome := d.Admit(t+event.Cycle(reqLat), s.cfg.Net.DirectoryLatency) + event.Cycle(s.cfg.Net.DirectoryLatency)
		s.queue.Schedule(arriveHome, n, nodeOpResolveDir, packReq(kind, forStore), uint64(line))
		return
	}
	n.mshrs.open(line)
}

// recordFastGrant maintains the home's per-line record for a request that
// completed on a CGCT fast path (local or direct route) — synchronous and
// message-free, see the type comment for why that is sound.
func (f *directoryFabric) recordFastGrant(d *directory.Directory, n *node, kind coherence.ReqKind, line addr.LineAddr, granted coherence.LineState) {
	switch kind {
	case coherence.ReqDCBI, coherence.ReqDCBF:
		f.clearRecord(d, n, line)
		return
	}
	e := d.Acquire(line)
	if granted == coherence.Shared {
		// Direct shared grant (instruction fetch in an externally clean
		// region): remote copies may exist; just add ourselves.
		e.AddSharer(n.id)
		return
	}
	// Exclusive/Modified grant: region exclusivity means no remote copies.
	e.Owner = n.id
	e.ClearSharers()
}

// clearRecord drops n from the record for line (fast-path write-backs,
// flushes, invalidates and replacement hints), retiring the record it
// looked up when no node holds the line any more.
func (f *directoryFabric) clearRecord(d *directory.Directory, n *node, line addr.LineAddr) {
	e := d.Lookup(line)
	if e == nil {
		return
	}
	if e.Owner == n.id {
		e.Owner = -1
	}
	e.RemoveSharer(n.id)
	d.Release(e)
}

// flushWriteback implements coherenceFabric: region-eviction flushes ride
// the direct path (the node held the region, so its lines' records clear
// without a home-pipeline slot).
func (f *directoryFabric) flushWriteback(n *node, line addr.LineAddr, mc int, t event.Cycle) {
	s := f.s
	s.run.Requests[coherence.ReqWriteback]++
	s.run.Directs[coherence.ReqWriteback]++
	s.run.DirMessages++
	s.run.DirFastPaths++
	f.clearRecord(f.dirs[mc], n, line)
	lat := s.cfg.Net.DirectRequestLatency(s.topo.ProcToMem(n.id, mc))
	s.mcs[mc].Write(s.perturb(t)+event.Cycle(lat), true)
}

// lineEvicted implements coherenceFabric: the replacement hint a node
// sends its home when it silently drops a clean line — without it the
// directory would believe the node still holds a copy and waste
// invalidations on it.
func (f *directoryFabric) lineEvicted(n *node, line addr.LineAddr) {
	s := f.s
	home := s.topo.HomeController(addr.Addr(line))
	s.run.DirMessages++
	f.clearRecord(f.dirs[home], n, line)
}

// handle implements coherenceFabric (the directory-owned event op codes).
func (f *directoryFabric) handle(n *node, now event.Cycle, op uint8, u32 uint32, u64 uint64) {
	switch op {
	case nodeOpResolveDir:
		kind, forStore := unpackReq(u32)
		line := addr.LineAddr(u64)
		f.resolve(n, kind, line, f.s.topo.HomeController(addr.Addr(line)), now, forStore)
	case nodeOpDirWriteback:
		f.writebackArrived(n, addr.LineAddr(u64), now)
	default:
		panic(fmt.Sprintf("sim: directory fabric cannot handle op %d", op))
	}
}

// writebackArrived lands a write-back at the home controller: the
// directory drops the writer's record and memory absorbs the data.
func (f *directoryFabric) writebackArrived(n *node, line addr.LineAddr, now event.Cycle) {
	s := f.s
	home := s.topo.HomeController(addr.Addr(line))
	f.clearRecord(f.dirs[home], n, line)
	s.mcs[home].Write(now, true)
}

// resolve performs the directory transaction at its home-arrival time:
// state changes are atomic here; the returned data/ack timing is
// scheduled afterwards.
func (f *directoryFabric) resolve(n *node, kind coherence.ReqKind, line addr.LineAddr, home int, now event.Cycle, forStore bool) {
	s := f.s
	d := f.dirs[home]

	// An upgrade that lost its line while the request was in flight turns
	// into a full read-for-ownership, as on the snooping path.
	if kind == coherence.ReqUpgrade && !n.l2.Lookup(line).Valid() {
		kind = coherence.ReqReadExcl
	}

	// Oracle classification (Figure 2's question asked of the directory):
	// would an omniscient protocol have needed this home transaction's
	// coherence actions at all? Observed before any state changes.
	//
	// The transaction takes the line's home record with the table's one
	// probe: data kinds create it when absent (a fresh record is uncached,
	// so it reads as no record does), flushes and invalidates only look.
	cat := stats.CategoryOf(kind)
	var e *directory.Entry
	if kind == coherence.ReqDCBF || kind == coherence.ReqDCBI {
		e = d.Lookup(line)
	} else {
		e = d.Acquire(line)
	}
	remoteValid, remoteWritable := f.recordedLineState(e, n.id, line)
	if s.DebugChecks {
		f.checkDirectoryOracle(n, line, remoteValid, remoteWritable, now)
	}
	if oracle.Unnecessary(kind, remoteValid, remoteWritable) {
		s.run.OracleUnnecessary[cat]++
	} else {
		s.run.OracleNecessary[cat]++
	}

	// Region snoop response, gathered before invalidations mutate the
	// caches (the directory learns it from the region notifications' acks),
	// with the remote RCA holders the notifications below go to.
	reg := s.geom.RegionOfLine(line)
	regionClean, regionDirty := false, false
	if n.rca != nil {
		regionClean, regionDirty, f.holders = s.observeRemoteRegion(n.id, reg, f.holders[:0])
	}
	prevOwner := -1
	if e != nil && e.Owner != n.id {
		prevOwner = e.Owner
	}

	// transferFrom computes when data sourced at node src reaches the
	// requester, given it leaves src at "ready".
	transferFrom := func(src int, ready event.Cycle) event.Cycle {
		ready += event.Cycle(s.cfg.Net.TransferLatency(s.topo.ProcToProc(n.id, src)))
		return s.dnet.Deliver(n.id, ready)
	}
	memData := func() event.Cycle {
		ready := s.mcs[home].Read(now, true, 0)
		ready += event.Cycle(s.cfg.Net.TransferLatency(s.topo.ProcToMem(n.id, home)))
		return s.dnet.Deliver(n.id, ready)
	}
	// invalidateSharers sends invalidations to every sharer the record
	// names except the requester and the owner, in node order, and
	// returns when the last acknowledgement is home. Every sharer it names
	// holds the line: the home installs a grant's record together with the
	// line, and a node dropping a clean line sends a replacement hint.
	invalidateSharers := func() event.Cycle {
		ackBy := now
		if e == nil {
			return ackBy
		}
		f.recorded = e.AppendNodes(f.recorded[:0], false)
		for _, id := range f.recorded {
			if id == n.id {
				continue
			}
			o := s.nodes[id]
			s.run.DirInvalidations++
			s.run.DirMessages += 2 // invalidation + ack
			if o.l2.Lookup(line).Valid() {
				o.l2.Invalidate(line)
			} else if s.DebugChecks {
				coherence.Violate(coherence.InvariantError{
					Check: "directory-stale-sharer", Cycle: uint64(now), Line: uint64(line),
					Detail: fmt.Sprintf("the home record names p%d as a sharer, but its L2 lacks the line", o.id),
				})
			}
			rt := event.Cycle(2 * s.cfg.Net.TransferLatency(s.topo.ProcToMem(o.id, home)))
			if now+rt > ackBy {
				ackBy = now + rt
			}
		}
		e.ClearSharers()
		return ackBy
	}

	var arrive event.Cycle
	var granted coherence.LineState

	switch kind {
	case coherence.ReqRead, coherence.ReqPrefetch, coherence.ReqIFetch:
		switch {
		case e.Owner >= 0 && e.Owner != n.id:
			// Three-hop transfer: home forwards to the owner, the owner
			// supplies the data (and writes back to memory, MESI-style).
			s.run.ThreeHops++
			s.run.CacheToCache++
			s.run.DirMessages += 2 // forward + data
			owner := s.nodes[e.Owner]
			owner.l2.SetState(line, coherence.Shared)
			owner.l1d.SetState(line, coherence.Shared)
			s.mcs[home].Write(now, true) // owner's dirty data reaches home
			fwd := now + event.Cycle(s.cfg.Net.TransferLatency(s.topo.ProcToMem(owner.id, home)))
			arrive = transferFrom(owner.id, fwd)
			e.AddSharer(owner.id)
			e.AddSharer(n.id)
			e.Owner = -1
			granted = coherence.Shared
		case e.Uncached() || e.Owner == n.id:
			s.run.DirMessages++ // data reply
			arrive = memData()
			if kind == coherence.ReqIFetch {
				granted = coherence.Shared
				e.AddSharer(n.id)
				e.Owner = -1
			} else {
				granted = coherence.Exclusive
				e.Owner = n.id
				e.ClearSharers()
			}
		default: // shared somewhere
			s.run.DirMessages++
			arrive = memData()
			granted = coherence.Shared
			e.AddSharer(n.id)
		}
	case coherence.ReqReadExcl, coherence.ReqPrefetchExcl, coherence.ReqUpgrade, coherence.ReqDCBZ:
		if e.Owner >= 0 && e.Owner != n.id {
			// Fetch the dirty line from its owner (three hops) and
			// invalidate it there.
			s.run.ThreeHops++
			s.run.CacheToCache++
			s.run.DirMessages += 2
			owner := s.nodes[e.Owner]
			owner.l2.Invalidate(line)
			fwd := now + event.Cycle(s.cfg.Net.TransferLatency(s.topo.ProcToMem(owner.id, home)))
			arrive = transferFrom(owner.id, fwd)
			e.Owner = -1
		} else {
			ackBy := invalidateSharers()
			if kind == coherence.ReqUpgrade || kind == coherence.ReqDCBZ {
				// Permission-only: complete once the acks are in.
				arrive = ackBy
			} else {
				s.run.DirMessages++
				arrive = memData()
				if arrive < ackBy {
					arrive = ackBy
				}
			}
		}
		granted = coherence.Modified
		e.Owner = n.id
		e.ClearSharers()
	case coherence.ReqDCBF, coherence.ReqDCBI:
		if e != nil && e.Owner >= 0 && e.Owner != n.id {
			o := s.nodes[e.Owner]
			if kind == coherence.ReqDCBF {
				s.mcs[home].Write(now, true)
			}
			o.l2.Invalidate(line)
			s.run.DirMessages += 2
			e.Owner = -1
		}
		arrive = invalidateSharers()
		// The requester's own copy goes too.
		if st := n.l2.Lookup(line); st.Valid() {
			if st.Dirty() && kind == coherence.ReqDCBF {
				s.mcs[home].Write(now, true)
			}
			n.l2.Invalidate(line)
		}
		if e != nil {
			e.Owner = -1
			d.Release(e)
		}
		granted = coherence.Invalid
	default:
		panic(fmt.Sprintf("sim: directory cannot resolve %v", kind))
	}

	// e is not used past here: a region allocation or the line install
	// below may displace a line whose flush or replacement hint retires
	// a record of this home, which may move e (directory.Directory).

	// Region protocol maintenance (full transactions only — the fast
	// paths never change remote region state). The home notifies every
	// remote RCA holder of the region, which downgrades or
	// self-invalidates exactly as a snooped broadcast would; the requester
	// waits for those acks before its grant is final. The requester's
	// region entry must exist before the line installs (RCA inclusion).
	// The holders gathered above are still exact: the line actions since
	// change remote line counts, never remote entries.
	requesterExclusive := granted == coherence.Exclusive || granted == coherence.Modified
	if n.rca != nil {
		for _, o := range f.holders {
			applyExternalRegion(o, reg, kind, requesterExclusive)
			s.run.DirRegionNotifies++
			s.run.DirMessages += 2 // notify + ack
			rt := now + event.Cycle(2*s.cfg.Net.TransferLatency(s.topo.ProcToMem(o.id, home)))
			if rt > arrive {
				arrive = rt
			}
		}
		n.applyBroadcastResponse(reg, kind, requesterExclusive, regionClean, regionDirty, prevOwner)
	}

	// Install the granted line (state change at the coherence point).
	if granted.Valid() {
		if kind == coherence.ReqUpgrade {
			n.l2.Promote(line, coherence.Modified)
		} else {
			n.l2.Allocate(line, granted)
		}
		if granted == coherence.Modified {
			s.trackWrite(n.id, line)
		}
	}

	if s.DebugChecks {
		s.checkLineInvariants(line, now)
		f.checkDirectoryAgrees(line, home, now)
		if s.cfg.CGCTEnabled {
			s.checkRegionExclusivity(reg, now)
		}
	}
	s.queue.Schedule(arrive, n, nodeOpCompleteFill, packReq(kind, forStore), uint64(line))
}

// recordedLineState reports whether any node other than exclude caches
// line, and whether any such copy is modifiable, reading the L2 only at the
// nodes line's home record e implicates: its owner and sharers
// (AppendNodes). No record (nil), like a fresh one, means no node holds
// the line. The protocol already relies on the record implicating every
// holder — invalidateSharers invalidates only those nodes, and
// checkDirectoryAgrees asserts it.
func (f *directoryFabric) recordedLineState(e *directory.Entry, exclude int, line addr.LineAddr) (valid, writable bool) {
	if e == nil {
		return false, false
	}
	f.recorded = e.AppendNodes(f.recorded[:0], true)
	for _, id := range f.recorded {
		if id == exclude {
			continue
		}
		if st := f.s.nodes[id].l2.Lookup(line); st.Valid() {
			valid = true
			if core.ModifiableLine(st) {
				writable = true
			}
		}
	}
	return valid, writable
}

// collect implements coherenceFabric: fold the per-home directory
// statistics into the run record.
func (f *directoryFabric) collect(run *stats.Run) {
	for _, d := range f.dirs {
		run.DirEntriesAllocated += d.Stats.Allocs
		run.DirQueuedCycles += d.Stats.QueuedCycles
		run.DirPeakEntries += d.Stats.Peak
	}
}

// close implements coherenceFabric: releases the process-wide live-entry
// gauge contribution.
func (f *directoryFabric) close() {
	for _, d := range f.dirs {
		d.Close()
	}
	f.dirs = nil
}

// checkDirectoryOracle asserts (tests only) that the oracle's
// record-filtered line state equals a scan of every node's cache.
func (f *directoryFabric) checkDirectoryOracle(n *node, line addr.LineAddr, valid, writable bool, cycle event.Cycle) {
	if wantValid, wantWritable := f.s.lineStateAnywhere(n.id, line); valid != wantValid || writable != wantWritable {
		coherence.Violate(coherence.InvariantError{
			Check: "directory-oracle", Cycle: uint64(cycle), Line: uint64(line),
			Detail: fmt.Sprintf("p%d's home record reads valid=%v writable=%v, the caches valid=%v writable=%v",
				n.id, valid, writable, wantValid, wantWritable),
		})
	}
}

// checkDirectoryAgrees asserts (tests only) that the directory entry for a
// line matches the true cache states.
func (f *directoryFabric) checkDirectoryAgrees(line addr.LineAddr, home int, cycle event.Cycle) {
	s := f.s
	e := f.dirs[home].Lookup(line)
	owner := -1
	if e != nil {
		owner = e.Owner
	}
	for _, o := range s.nodes {
		st := o.l2.Lookup(line)
		hasBit := e != nil && e.Has(o.id)
		switch {
		case st == coherence.Exclusive || st == coherence.Modified:
			if owner != o.id {
				coherence.Violate(coherence.InvariantError{
					Check: "directory-agreement", Cycle: uint64(cycle), Line: uint64(line),
					States: st.String(),
					Detail: fmt.Sprintf("directory says owner %d, but p%d holds the line", owner, o.id),
				})
			}
		case st == coherence.Shared:
			if !hasBit && owner != o.id {
				coherence.Violate(coherence.InvariantError{
					Check: "directory-agreement", Cycle: uint64(cycle), Line: uint64(line),
					States: st.String(),
					Detail: fmt.Sprintf("p%d shares the line but directory has no record", o.id),
				})
			}
		case !st.Valid():
			if owner == o.id {
				coherence.Violate(coherence.InvariantError{
					Check: "directory-agreement", Cycle: uint64(cycle), Line: uint64(line),
					States: st.String(),
					Detail: fmt.Sprintf("directory owner p%d does not cache the line", o.id),
				})
			}
		}
	}
}
