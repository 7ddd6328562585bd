package sim

import (
	"fmt"

	"cgct/internal/addr"
	"cgct/internal/bus"
	"cgct/internal/cache"
	"cgct/internal/coherence"
	"cgct/internal/core"
	"cgct/internal/event"
	"cgct/internal/oracle"
	"cgct/internal/stats"
)

// snoopFabric is the broadcast snooping backend (the paper's base
// system): requests arbitrate for a global address bus, every processor
// snoops its tags, and the combined snoop response resolves the MOESI
// transaction. CGCT's direct and local routes bypass the bus entirely.
type snoopFabric struct {
	s    *System
	abus *bus.AddressBus

	// snooped is performBroadcast's scratch list of the remote nodes its
	// action phase visits, with their L2 state for the line (snoop).
	snooped []snoopedNode
	// holders is performRegionProbe's scratch list of the remote nodes
	// holding an RCA entry for the probed region (observeRemoteRegion).
	holders []*node
}

// snoopedNode is one remote node a broadcast's snoop phase visited.
type snoopedNode struct {
	o  *node
	st coherence.LineState
}

func newSnoopFabric(s *System) *snoopFabric {
	return &snoopFabric{
		s:       s,
		abus:    bus.NewAddressBus(s.cfg.Net),
		snooped: make([]snoopedNode, 0, s.cfg.Topology.Processors),
		holders: make([]*node, 0, s.cfg.Topology.Processors),
	}
}

// issue implements coherenceFabric.
func (f *snoopFabric) issue(n *node, kind coherence.ReqKind, line addr.LineAddr, t event.Cycle, forStore bool) {
	s := f.s
	t = s.perturb(t)
	s.run.Requests[kind]++

	region := s.geom.RegionOfLine(line)
	route := core.RouteBroadcast
	regionMC := s.topo.HomeControllerRegion(region)
	if n.rca != nil {
		e := n.rca.Lookup(region)
		s.run.RegionStateAtLookup[e.State]++
		route = n.protocol.Route(e.State, kind)
	}
	if n.nsrt != nil && kind != coherence.ReqWriteback && n.nsrt.Lookup(region) {
		// RegionScout: the region is recorded globally unshared.
		switch kind {
		case coherence.ReqUpgrade, coherence.ReqDCBZ, coherence.ReqDCBI:
			route = core.RouteLocal
		default:
			route = core.RouteDirect
		}
	}

	if kind == coherence.ReqWriteback {
		if route == core.RouteDirect {
			s.run.Directs[kind]++
			f.writebackToMC(n, line, regionMC, t, true)
		} else {
			s.run.Broadcasts[kind]++
			f.busSchedule(n, t, nodeOpWritebackBcast, 0, uint64(line))
		}
		return
	}

	switch route {
	case core.RouteLocal:
		s.run.LocalDones[kind]++
		if s.DebugChecks {
			s.checkNonBroadcastSafe(n, kind, line, t, "local")
		}
		n.applyLocalRoute(kind, line, region)
		n.outstanding++
		s.queue.Schedule(t, n, nodeOpCompleteFill, packReq(kind, forStore), uint64(line))
	case core.RouteDirect:
		s.run.Directs[kind]++
		n.outstanding++
		arrive := n.applyDirectRoute(kind, line, region, regionMC, t)
		s.queue.Schedule(arrive, n, nodeOpCompleteFill, packReq(kind, forStore), uint64(line))
	default: // broadcast
		s.run.Broadcasts[kind]++
		n.outstanding++
		n.mshrs.open(line)
		f.busSchedule(n, t, nodeOpBroadcast, packReq(kind, forStore), uint64(line))
		return
	}
	n.mshrs.open(line)
}

// busSchedule arbitrates for the address bus and schedules the granted
// event at grant+SnoopLatency — the cycle its snoop results become
// visible system-wide.
func (f *snoopFabric) busSchedule(n *node, t event.Cycle, op uint8, u32 uint32, u64 uint64) {
	s := f.s
	grant := f.abus.Arbitrate(t)
	s.run.Windows.Record(grant)
	s.queue.Schedule(grant+event.Cycle(s.cfg.Net.SnoopLatency), n, op, u32, u64)
}

// writebackToMC sends dirty data to memory controller mc (direct path when
// direct is true; otherwise the data follows a broadcast and pays the snoop
// latency first).
func (f *snoopFabric) writebackToMC(n *node, line addr.LineAddr, mc int, t event.Cycle, direct bool) {
	s := f.s
	lat := uint64(0)
	if direct {
		lat = s.cfg.Net.DirectRequestLatency(s.topo.ProcToMem(n.id, mc))
	} else {
		lat = s.cfg.Net.SnoopLatency
	}
	s.mcs[mc].Write(t+event.Cycle(lat), direct)
}

// flushWriteback implements coherenceFabric: the region-eviction flush
// path goes direct to the victim entry's controller.
func (f *snoopFabric) flushWriteback(n *node, line addr.LineAddr, mc int, t event.Cycle) {
	s := f.s
	s.run.Requests[coherence.ReqWriteback]++
	s.run.Directs[coherence.ReqWriteback]++
	f.writebackToMC(n, line, mc, s.perturb(t), true)
}

// lineEvicted implements coherenceFabric: snooping needs no replacement
// hints — there is no directory state to keep in step.
func (f *snoopFabric) lineEvicted(n *node, line addr.LineAddr) {}

// handle implements coherenceFabric (the snoop-owned event op codes).
// Bus-granted events are scheduled at grant+SnoopLatency (busSchedule),
// so the grant is recovered by subtracting the snoop latency.
func (f *snoopFabric) handle(n *node, now event.Cycle, op uint8, u32 uint32, u64 uint64) {
	grant := now - event.Cycle(f.s.cfg.Net.SnoopLatency)
	switch op {
	case nodeOpBroadcast:
		kind, forStore := unpackReq(u32)
		line := addr.LineAddr(u64)
		f.performBroadcast(n, kind, line, f.s.geom.RegionOfLine(line), grant, forStore)
	case nodeOpWritebackBcast:
		line := addr.LineAddr(u64)
		// Write-backs are always unnecessary broadcasts (§5.1). The data
		// reaches memory at grant+SnoopLatency — this event's time.
		f.s.run.OracleUnnecessary[stats.CatWriteback]++
		f.writebackToMC(n, line, f.s.topo.HomeController(addr.Addr(line)), grant, false)
	case nodeOpRegionProbe:
		f.performRegionProbe(n, addr.RegionAddr(u64), now)
	default:
		panic(fmt.Sprintf("sim: snoop fabric cannot handle op %d", op))
	}
}

// collect implements coherenceFabric: every snoop-side statistic is
// already accumulated straight into the run record.
func (f *snoopFabric) collect(run *stats.Run) {}

// close implements coherenceFabric.
func (f *snoopFabric) close() {}

// performBroadcast executes a broadcast when its combined snoop response
// resolves, SnoopLatency after the bus grant (the event is scheduled at
// grant+SnoopLatency; timing below is computed from the recovered grant):
// snoop every other processor (line state and region state), classify the
// broadcast with the oracle, apply the conventional MOESI actions and the
// region-protocol transitions, and schedule the data delivery.
func (f *snoopFabric) performBroadcast(n *node, kind coherence.ReqKind, line addr.LineAddr, region addr.RegionAddr, grant event.Cycle, forStore bool) {
	s := f.s

	// An upgrade whose line was invalidated while the request was queued
	// must fetch the data after all.
	if kind == coherence.ReqUpgrade && !n.l2.Lookup(line).Valid() {
		kind = coherence.ReqReadExcl
	}

	// --- Snoop phase (state observed before any action). ---
	r := f.snoop(n, line, region)
	if s.DebugChecks {
		s.checkSnoopScan(n.id, line, region, grant)
	}

	// --- Oracle classification (Figure 2). ---
	cat := stats.CategoryOf(kind)
	if oracle.Unnecessary(kind, r.remoteValid, r.remoteWritable) {
		s.run.OracleUnnecessary[cat]++
	} else {
		s.run.OracleNecessary[cat]++
	}

	granted := grantedLineState(kind, r.remoteValid)
	requesterExclusive := granted == coherence.Exclusive || granted == coherence.Modified

	// --- Conventional protocol actions on the snooped processors. ---
	// Each node's actions touch only its own caches and RCA, so the line
	// state its snoop recorded is still current when its turn comes.
	for _, h := range f.snooped {
		o := h.o
		if h.st.Valid() {
			switch kind {
			case coherence.ReqRead, coherence.ReqPrefetch, coherence.ReqIFetch:
				switch h.st {
				case coherence.Modified:
					o.l2.SetState(line, coherence.Owned)
					o.l1d.SetState(line, coherence.Shared)
				case coherence.Exclusive:
					o.l2.SetState(line, coherence.Shared)
					o.l1d.SetState(line, coherence.Shared)
				}
			case coherence.ReqReadExcl, coherence.ReqPrefetchExcl, coherence.ReqUpgrade,
				coherence.ReqDCBZ, coherence.ReqDCBI:
				o.l2.Invalidate(line)
			case coherence.ReqDCBF:
				if h.st.Dirty() {
					home := s.topo.HomeController(addr.Addr(line))
					s.mcs[home].Write(grant+event.Cycle(s.cfg.Net.SnoopLatency), false)
				}
				o.l2.Invalidate(line)
			}
		}
		// Region protocol: external-request transitions (Figure 5).
		applyExternalRegion(o, region, kind, requesterExclusive)
	}
	// RegionScout: observing any external request for the region ends its
	// not-shared status at every other node, filtered or not. Only the
	// recorded holder can have an entry to end.
	if s.nsrts != nil {
		s.nsrts.Observe(n.id, region)
	}

	// --- Region protocol on the requester (Figures 3 and 4). ---
	if n.rca != nil {
		if n.applyBroadcastResponse(region, kind, requesterExclusive, r.regionClean, r.regionDirty, r.owner) {
			f.maybeProbeNextRegion(n, region, grant)
		}
	}

	// RegionScout learning: a snoop that found no region presence records
	// the region as globally unshared.
	if s.nsrts != nil && !r.crhPresent {
		s.nsrts.Insert(n.id, region)
	}

	// --- Requester cache update. ---
	switch kind {
	case coherence.ReqUpgrade:
		n.l2.Promote(line, coherence.Modified)
		s.trackWrite(n.id, line)
	case coherence.ReqDCBZ:
		n.l2.Allocate(line, coherence.Modified)
		s.trackWrite(n.id, line)
	case coherence.ReqDCBI:
		n.l2.Invalidate(line)
	case coherence.ReqDCBF:
		if st := n.l2.Lookup(line); st.Valid() {
			if st.Dirty() {
				home := s.topo.HomeController(addr.Addr(line))
				s.mcs[home].Write(grant+event.Cycle(s.cfg.Net.SnoopLatency), false)
			}
			n.l2.Invalidate(line)
		}
	default: // data-bearing kinds
		n.l2.Allocate(line, granted)
		if granted == coherence.Modified {
			s.trackWrite(n.id, line)
		}
	}

	if s.DebugChecks {
		s.checkRegionExclusivity(region, grant)
		s.checkLineInvariants(line, grant)
		if s.nsrts != nil {
			s.checkNSRTHolder(region, grant)
		}
	}

	// --- Timing. ---
	snoopDone := grant + event.Cycle(s.cfg.Net.SnoopLatency)
	arrive := snoopDone
	if kind.WantsData() {
		if r.owner >= 0 {
			// Cache-to-cache transfer from the dirty owner.
			s.run.CacheToCache++
			ready := snoopDone + event.Cycle(s.cfg.Net.TransferLatency(s.topo.ProcToProc(n.id, r.owner)))
			arrive = s.dnet.Deliver(n.id, ready)
		} else {
			// Memory supplies the data; DRAM overlaps the snoop, so only
			// the non-overlapped tail is exposed (Figure 6).
			home := s.topo.HomeController(addr.Addr(line))
			ready := s.mcs[home].Read(grant, false, s.cfg.Net.SnoopLatency+s.cfg.Net.DRAMOverlapExtra)
			ready += event.Cycle(s.cfg.Net.TransferLatency(s.topo.ProcToMem(n.id, home)))
			arrive = s.dnet.Deliver(n.id, ready)
		}
	}
	s.queue.Schedule(arrive, n, nodeOpCompleteFill, packReq(kind, forStore), uint64(line))
}

// snoopResponse is a broadcast's combined snoop response from the remote
// nodes: whether any caches the line and whether such a copy is writable
// (E, O or M), the dirty owner (-1 when none), the region response read
// from the remote RCA entries' line counts (CGCT), and whether any remote
// cached-region hash claims the region (RegionScout).
type snoopResponse struct {
	remoteValid, remoteWritable bool
	owner                       int
	regionClean, regionDirty    bool
	crhPresent                  bool
}

// addLine folds remote node id's copy of the line, in state st, into the
// response.
func (r *snoopResponse) addLine(id int, st coherence.LineState) {
	r.remoteValid = true
	if core.ModifiableLine(st) {
		r.remoteWritable = true
	}
	if st.Dirty() {
		r.owner = id
	}
}

// snoop gathers a broadcast's snoop response from every node but the
// requester n, and lists in f.snooped, in node order, the nodes the action
// phase must visit with their line state: every remote RCA holder of the
// region under CGCT, every remote holder of the line otherwise.
//
// The modelled hardware snoops every remote node. A node whose RCA has no
// entry for the region, or whose cached-region hash counts nothing in the
// region's bucket, answers without probing its tags (SnoopTagFiltered);
// every other node looks its tags up (SnoopTagLookups). The simulator
// reads the same answers from one scan per bank (snoopScan) — the RCA or
// CRH bank for the filter, then the L2 bank for the line — and counts the
// two statistics from the scan's lengths. An RCA entry counting no lines
// proves its node's tags hold nothing of the region, so under CGCT the L2
// bank is scanned only when some remote entry counts lines.
func (f *snoopFabric) snoop(n *node, line addr.LineAddr, region addr.RegionAddr) (r snoopResponse) {
	s := f.s
	s.scan.reset()
	r.owner = -1
	f.snooped = f.snooped[:0]
	remote := uint64(len(s.nodes) - 1)
	lookups := remote
	switch {
	case s.rcas != nil:
		regions := s.scanRegions(region)
		lookups = 0
		counting := false
		for _, h := range regions {
			if h.Index != n.id {
				lookups++
				counting = counting || h.Entry.LineCount > 0
			}
		}
		var lines []cache.Holder
		if counting {
			lines = s.scanLines(line)
		}
		for _, h := range regions {
			if h.Index == n.id {
				continue
			}
			st := coherence.Invalid
			if h.Entry.LineCount > 0 {
				// RCA inclusion: every remote holder of the line counts it,
				// so both lists advance in node order together.
				for len(lines) > 0 && lines[0].Index < h.Index {
					lines = lines[1:]
				}
				if len(lines) > 0 && lines[0].Index == h.Index {
					st = lines[0].State
					r.addLine(h.Index, st)
				}
				// This entry's counts are its node's region response.
				if h.Entry.ModLines > 0 {
					r.regionDirty = true
				} else {
					r.regionClean = true
				}
			}
			f.snooped = append(f.snooped, snoopedNode{s.nodes[h.Index], st})
		}
	case s.crhs != nil:
		lookups = 0
		for _, i := range s.scanBuckets(region) {
			if i != n.id {
				lookups++
			}
		}
		// The hash never misses a region with cached lines, so when no
		// remote bucket counts anything no remote node holds the line.
		r.crhPresent = lookups > 0
		if r.crhPresent {
			f.snoopLines(n, line, &r)
		}
	default:
		f.snoopLines(n, line, &r)
	}
	s.run.SnoopTagLookups += lookups
	s.run.SnoopTagFiltered += remote - lookups
	return r
}

// snoopLines scans the L2 bank for line and adds every remote holder to
// the response and to f.snooped.
func (f *snoopFabric) snoopLines(n *node, line addr.LineAddr, r *snoopResponse) {
	for _, h := range f.s.scanLines(line) {
		if h.Index != n.id {
			r.addLine(h.Index, h.State)
			f.snooped = append(f.snooped, snoopedNode{f.s.nodes[h.Index], h.State})
		}
	}
}

// maybeProbeNextRegion implements the §6 region-state prefetch: when a new
// region entry was just allocated and the preceding region is also present
// (evidence of a sequential stream), probe the global state of the next
// region. The probe is a broadcast that requests no data — it only gathers
// the region snoop response, downgrading remote exclusive entries exactly
// as a shared read would, so the prober and the remote holders end up
// mutually consistent.
func (f *snoopFabric) maybeProbeNextRegion(n *node, region addr.RegionAddr, now event.Cycle) {
	s := f.s
	if !s.cfg.Proc.RegionPrefetch {
		return
	}
	rb := uint64(s.geom.RegionBytes)
	prev := addr.RegionAddr(uint64(region) - rb)
	next := addr.RegionAddr(uint64(region) + rb)
	if uint64(region) < rb || !n.rca.Probe(prev).State.Valid() || n.rca.Probe(next).State.Valid() {
		return
	}
	f.busSchedule(n, now, nodeOpRegionProbe, 0, uint64(next))
}

// performRegionProbe executes the probe when its snoop results become
// visible (grant+SnoopLatency).
func (f *snoopFabric) performRegionProbe(n *node, region addr.RegionAddr, now event.Cycle) {
	s := f.s
	if n.rca == nil || n.rca.Probe(region).State.Valid() {
		return // raced with a demand allocation
	}
	var regionClean, regionDirty bool
	regionClean, regionDirty, f.holders = s.observeRemoteRegion(n.id, region, f.holders[:0])
	for _, o := range f.holders {
		// The probe behaves like an external shared read: remote
		// exclusives downgrade (or self-invalidate when empty) so
		// that no silent upgrades can invalidate the prober's view.
		applyExternalRegion(o, region, coherence.ReqIFetch, false)
	}
	if n.applyBroadcastResponse(region, coherence.ReqIFetch, false, regionClean, regionDirty, -1) {
		s.run.RegionProbes++
	}
	if s.DebugChecks {
		s.checkRegionExclusivity(region, now)
	}
}
