package sim

import (
	"fmt"

	"cgct/internal/addr"
	"cgct/internal/cache"
	"cgct/internal/coherence"
	"cgct/internal/core"
	"cgct/internal/event"
	"cgct/internal/proc"
	"cgct/internal/regionscout"
	"cgct/internal/workload"
)

// mshr tracks one in-flight fill and the work waiting on it. mshrs are
// pooled per node (see mshrFile) so the miss path allocates nothing in
// steady state.
type mshr struct {
	// waiters are store-buffer entries retried when the fill completes
	// (the stalled processor is resumed separately via demandLine).
	waiters []storeEntry
	free    *mshr // next entry in the file's free list
}

// mshrFile is a node's miss status holding registers: the line addresses
// of its in-flight fills in a dense slice, scanned linearly, beside their
// pooled mshrs. In-flight fills bound it — DemandOverlap demand misses,
// MaxOutstanding prefetches and StoreBufferSize store-buffer requests — so
// it is sized once and never grows; a few live entries is typical. Nothing
// iterates it in order, so swap-removal cannot reach the results.
type mshrFile struct {
	lines []addr.LineAddr
	ents  []*mshr
	free  *mshr // recycled mshrs
}

func newMSHRFile(capacity int) mshrFile {
	return mshrFile{lines: make([]addr.LineAddr, 0, capacity), ents: make([]*mshr, 0, capacity)}
}

// find returns the in-flight entry for line, or nil.
func (f *mshrFile) find(line addr.LineAddr) *mshr {
	for i, l := range f.lines {
		if l == line {
			return f.ents[i]
		}
	}
	return nil
}

// open gives line an entry, keeping an existing one: a line already in
// flight keeps its waiters.
func (f *mshrFile) open(line addr.LineAddr) {
	if f.find(line) != nil {
		return
	}
	m := f.free
	if m != nil {
		f.free = m.free
		m.free = nil
	} else {
		m = &mshr{}
	}
	f.lines = append(f.lines, line)
	f.ents = append(f.ents, m)
}

// take removes line's entry and returns it, or nil when the line is not in
// flight. The caller may open a new entry for the same line while it still
// reads the old one's waiters, and hands it back with release.
func (f *mshrFile) take(line addr.LineAddr) *mshr {
	for i, l := range f.lines {
		if l != line {
			continue
		}
		m := f.ents[i]
		last := len(f.lines) - 1
		f.lines[i], f.ents[i] = f.lines[last], f.ents[last]
		f.ents[last] = nil
		f.lines, f.ents = f.lines[:last], f.ents[:last]
		return m
	}
	return nil
}

// release recycles a taken mshr, keeping its waiter storage.
func (f *mshrFile) release(m *mshr) {
	m.waiters = m.waiters[:0]
	m.free = f.free
	f.free = m
}

// storeEntry is one store-buffer slot.
type storeEntry struct {
	line addr.LineAddr
	kind workload.OpKind // OpStore, OpDCBZ or OpDCBF
}

// opBatch is the refill granularity of the trace consumer: the source
// (a compiled-trace cursor or a generator adapter) decodes this many ops
// per Fill, so the per-op cost on the hot path is a buffered array read
// instead of an interface dispatch.
const opBatch = 128

// node is one processor: caches, optional RCA, prefetcher and the trace
// consumer state machine.
type node struct {
	sys *System
	id  int

	l1i, l1d *cache.Cache
	l2       cache.Store
	rca      *core.RCA
	protocol core.Protocol
	crh      *regionscout.CRH
	nsrt     *regionscout.NSRT
	pf       *proc.StreamPrefetcher

	src          workload.Source
	opBuf        [opBatch]workload.Op
	opPos, opLen int

	// Execution state.
	localTime       event.Cycle
	scheduled       bool // a run-continuation event is pending
	stalled         bool // blocked waiting for a specific in-flight fill
	demandLine      addr.LineAddr
	demandStart     event.Cycle // when the demand stall began
	storeStalled    bool        // blocked on a full store buffer
	limitStalled    bool        // blocked on the demand-overlap (MLP) window
	limitStallStart event.Cycle
	curOp           workload.Op
	haveOp          bool
	finished        bool

	mshrs             mshrFile // in-flight fills and their waiters
	storeBufUsed      int
	outstanding       int // in-flight fabric requests
	outstandingDemand int // in-flight demand (load/ifetch) misses
	outstandingPf     int // in-flight prefetches (bounded by MaxOutstanding)
	genExhausted      bool

	instructions uint64
}

// now returns the node's best notion of current time: its own local clock
// when running ahead of the global queue, the global clock otherwise. Used
// by cache hooks that fire from fabric context.
func (n *node) now() event.Cycle {
	if g := n.sys.queue.Now(); g > n.localTime {
		return g
	}
	return n.localTime
}

func newNode(s *System, id int, src workload.Source) *node {
	n := &node{
		sys:   s,
		id:    id,
		l1i:   cache.New(fmt.Sprintf("p%d.l1i", id), s.cfg.L1I.SizeBytes, s.cfg.L1I.Assoc, s.cfg.L1I.LineBytes),
		l1d:   cache.New(fmt.Sprintf("p%d.l1d", id), s.cfg.L1D.SizeBytes, s.cfg.L1D.Assoc, s.cfg.L1D.LineBytes),
		src:   src,
		mshrs: newMSHRFile(s.cfg.Proc.DemandOverlap + s.cfg.Proc.MaxOutstanding + s.cfg.Proc.StoreBufferSize),
	}
	n.l2 = s.l2s.Store(id)
	if s.cfg.Proc.PrefetchStreams > 0 {
		n.pf = proc.NewStreamPrefetcher(s.cfg.Proc.PrefetchStreams, s.cfg.Proc.PrefetchRunahead, s.cfg.L2.LineBytes)
	}
	if s.rcas != nil {
		n.rca = s.rcas.RCA(id)
		n.rca.OnEvict = n.onRegionEvict
		switch {
		case s.cfg.RCA.ThreeState:
			n.protocol = core.ThreeState{}
		case s.cfg.RCA.ReadSharedDirect:
			n.protocol = core.SevenStateReadShared{}
		default:
			n.protocol = core.SevenState{}
		}
	}
	if s.crhs != nil {
		n.crh = s.crhs.CRH(id)
		n.nsrt = s.nsrts.Table(id)
	}
	// Inclusion hooks: L2 evictions/invalidations back-invalidate the L1s,
	// maintain the RCA line counts, and generate write-backs.
	n.l2.SetHooks(n.onL2Evict, n.onL2Allocate, n.onL2StateChange)
	return n
}

// schedule queues a run continuation at time t (no-op if one is pending).
func (n *node) schedule(t event.Cycle) {
	if n.scheduled || n.finished {
		return
	}
	n.scheduled = true
	n.sys.queue.Schedule(t, n, nodeOpStep, 0, 0)
}

// step runs the processor until it stalls, runs ahead of the batch horizon,
// or exhausts its trace.
func (n *node) step(now event.Cycle) {
	if n.stalled || n.storeStalled || n.limitStalled || n.finished {
		return
	}
	if n.localTime < now {
		n.localTime = now
	}
	for {
		if !n.haveOp {
			if n.opPos == n.opLen {
				n.opLen = n.src.Fill(n.opBuf[:])
				n.opPos = 0
				if n.opLen == 0 {
					n.genExhausted = true
					n.maybeFinish()
					return
				}
			}
			op := n.opBuf[n.opPos]
			n.opPos++
			n.curOp = op
			n.haveOp = true
			// Charge the non-memory instruction gap at the commit width,
			// once per op (retries after stalls do not recharge it).
			gapCycles := (uint64(op.Gap) + uint64(n.sys.cfg.Proc.CommitWidth) - 1) / uint64(n.sys.cfg.Proc.CommitWidth)
			n.localTime += event.Cycle(gapCycles)
		}
		if !n.execOp(n.curOp, n.localTime) {
			return // stalled; curOp remains current and is retried on resume
		}
		n.instructions += uint64(n.curOp.Gap) + 1
		n.haveOp = false
		if n.localTime > now+n.sys.horizon {
			n.schedule(n.localTime)
			return
		}
	}
}

// execOp executes one trace operation beginning at time t. It returns
// false when the processor must stall (the op stays current and re-runs).
func (n *node) execOp(op workload.Op, t event.Cycle) bool {
	switch op.Kind {
	case workload.OpLoad:
		return n.execLoad(op, t)
	case workload.OpIFetch:
		return n.execIFetch(op, t)
	case workload.OpStore, workload.OpDCBZ, workload.OpDCBF:
		return n.execStoreLike(op, t)
	default:
		panic(fmt.Sprintf("sim: unknown op kind %v", op.Kind))
	}
}

func (n *node) execLoad(op workload.Op, t event.Cycle) bool {
	line := n.sys.geom.Line(op.Addr)
	t += event.Cycle(n.sys.cfg.L1D.LatencyCy)
	if n.l1d.Access(line).Valid() {
		if n.sys.DebugChecks {
			n.sys.checkRead(n.id, line)
		}
		n.localTime = t
		return true
	}
	// The line may be architecturally present (installed at the request's
	// coherence point) while its data is still in flight; dependent
	// accesses wait for the data to arrive.
	if n.mshrs.find(line) != nil {
		n.stallOn(line, t)
		return false
	}
	// L1D miss: consult the L2.
	t += event.Cycle(n.sys.cfg.L2.LatencyCy)
	if n.l2.AccessHit(line) {
		if n.sys.DebugChecks {
			n.sys.checkRead(n.id, line)
		}
		n.fillL1D(line, false)
		n.firePrefetches(line, false, false, t)
		n.localTime = t
		return true
	}
	// L2 miss: demand read.
	return n.demandMiss(coherence.ReqRead, line, t)
}

func (n *node) execIFetch(op workload.Op, t event.Cycle) bool {
	line := n.sys.geom.Line(op.Addr)
	t += event.Cycle(n.sys.cfg.L1I.LatencyCy)
	if n.l1i.Access(line).Valid() {
		n.localTime = t
		return true
	}
	if n.mshrs.find(line) != nil {
		n.stallOn(line, t)
		return false
	}
	t += event.Cycle(n.sys.cfg.L2.LatencyCy)
	if n.l2.AccessHit(line) {
		n.l1i.Allocate(line, coherence.Shared)
		n.localTime = t
		return true
	}
	return n.demandMiss(coherence.ReqIFetch, line, t)
}

// demandMiss handles a load or instruction-fetch L2 miss under the
// stall-on-Nth-miss model: up to DemandOverlap demand misses proceed in
// the background (the out-of-order window hides their latency); the core
// stalls when the window is full. The caller has already established the
// line is not in flight (a true dependence stalls before the L2 is
// consulted). It returns false when the processor must stall.
func (n *node) demandMiss(kind coherence.ReqKind, line addr.LineAddr, t event.Cycle) bool {
	if n.outstandingDemand >= n.sys.cfg.Proc.DemandOverlap {
		n.limitStalled = true
		n.limitStallStart = t
		n.localTime = t
		return false
	}
	n.outstandingDemand++
	n.sys.run.DemandMisses++
	n.issueRequest(kind, line, t, false)
	if kind == coherence.ReqRead {
		// The stream engine watches data accesses only (instruction pages
		// are fetched shared and must not be grabbed exclusively by a
		// store-trained stream).
		n.firePrefetches(line, false, true, t)
	}
	n.localTime = t
	return true
}

// execStoreLike handles stores, DCBZ and DCBF: the processor charges one
// L1 access cycle and the operation drains through the store buffer.
func (n *node) execStoreLike(op workload.Op, t event.Cycle) bool {
	line := n.sys.geom.Line(op.Addr)
	t += event.Cycle(n.sys.cfg.L1D.LatencyCy)
	if op.Kind == workload.OpStore {
		// Fast path: the line is writable in the L1D.
		if n.l1d.Access(line) == coherence.Modified {
			n.localTime = t
			return true
		}
	}
	if n.storeBufUsed >= n.sys.cfg.Proc.StoreBufferSize {
		// Store buffer full: stall until a slot frees.
		n.storeStalled = true
		n.localTime = t
		return false
	}
	n.storeBufUsed++
	n.processStore(storeEntry{line: line, kind: op.Kind}, t)
	n.localTime = t
	return true
}

// processStore advances one store-buffer entry at time t. Entries complete
// in the background; completion frees the slot.
func (n *node) processStore(se storeEntry, t event.Cycle) {
	if m := n.mshrs.find(se.line); m != nil {
		m.waiters = append(m.waiters, se)
		return
	}
	t += event.Cycle(n.sys.cfg.L2.LatencyCy)
	switch se.kind {
	case workload.OpStore:
		st := n.l2.Lookup(se.line)
		switch {
		case st == coherence.Modified || st == coherence.Exclusive:
			// Silent E→M upgrade; no fabric involvement.
			if st == coherence.Exclusive {
				n.sys.trackWrite(n.id, se.line)
			}
			n.l2.Promote(se.line, coherence.Modified)
			n.fillL1D(se.line, true)
			n.finishStore(t)
		case st == coherence.Shared || st == coherence.Owned:
			n.requestForStore(coherence.ReqUpgrade, se, t)
		default: // not cached: read-for-ownership
			n.requestForStore(coherence.ReqReadExcl, se, t)
		}
	case workload.OpDCBZ:
		st := n.l2.Lookup(se.line)
		if st == coherence.Modified || st == coherence.Exclusive {
			if st == coherence.Exclusive {
				n.sys.trackWrite(n.id, se.line)
			}
			n.l2.Promote(se.line, coherence.Modified)
			n.fillL1D(se.line, true)
			n.finishStore(t)
			return
		}
		n.requestForStore(coherence.ReqDCBZ, se, t)
	case workload.OpDCBF:
		n.requestForStore(coherence.ReqDCBF, se, t)
	}
}

// requestForStore issues a fabric request on behalf of a store-buffer
// entry; completion frees the slot (the forStore flag travels with the
// request's events).
func (n *node) requestForStore(kind coherence.ReqKind, se storeEntry, t event.Cycle) {
	n.issueRequest(kind, se.line, t, true)
}

// finishStore frees a store-buffer slot and unblocks the processor if it
// was waiting for one.
func (n *node) finishStore(now event.Cycle) {
	n.storeBufUsed--
	if n.storeBufUsed < 0 {
		panic("sim: store buffer underflow")
	}
	if n.storeStalled {
		n.storeStalled = false
		n.schedule(now)
	}
	n.maybeFinish()
}

// stallOn marks the processor blocked waiting for the in-flight fill of
// line (a true dependence).
func (n *node) stallOn(line addr.LineAddr, t event.Cycle) {
	n.stalled = true
	n.demandLine = line
	n.demandStart = t
	n.localTime = t
}

// resumeIfWaiting unblocks the processor when the line it stalled on has
// been filled. The stall time is the exposed (non-overlapped) miss
// latency.
func (n *node) resumeIfWaiting(line addr.LineAddr, now event.Cycle) {
	if !n.stalled || n.demandLine != line {
		return
	}
	n.stalled = false
	if now > n.demandStart {
		n.sys.run.DemandMissCycles += uint64(now - n.demandStart)
	}
	if n.localTime < now {
		n.localTime = now
	}
	// The current op re-executes and should now hit.
	n.schedule(now)
}

// demandCompleted retires one demand miss from the overlap window and
// unblocks a window-stalled core.
func (n *node) demandCompleted(now event.Cycle) {
	n.outstandingDemand--
	if n.outstandingDemand < 0 {
		panic("sim: demand window underflow")
	}
	if n.limitStalled {
		n.limitStalled = false
		if now > n.limitStallStart {
			n.sys.run.DemandMissCycles += uint64(now - n.limitStallStart)
		}
		if n.localTime < now {
			n.localTime = now
		}
		n.schedule(now)
	}
}

// firePrefetches trains the stream prefetcher on a demand L2 access and
// issues its hints, subject to the outstanding-request window.
func (n *node) firePrefetches(line addr.LineAddr, isStore, wasMiss bool, t event.Cycle) {
	if n.pf == nil {
		return
	}
	for _, h := range n.pf.OnAccess(line, isStore, wasMiss) {
		if n.outstandingPf >= n.sys.cfg.Proc.MaxOutstanding {
			return
		}
		if n.mshrs.find(h.Line) != nil {
			continue
		}
		if n.l2.Lookup(h.Line).Valid() {
			continue
		}
		if n.sys.cfg.Proc.PrefetchRegionFilter && n.rca != nil {
			// §6 extension: the region state identifies bad prefetch
			// candidates — lines in externally dirty regions are likely
			// cached modified elsewhere and would bounce.
			if n.rca.Probe(n.sys.geom.RegionOfLine(h.Line)).State.ExternallyDirty() {
				continue
			}
		}
		kind := coherence.ReqPrefetch
		if h.Exclusive {
			kind = coherence.ReqPrefetchExcl
		}
		n.outstandingPf++
		n.issueRequest(kind, h.Line, t, false)
	}
}

// fillL1D installs a line in the L1 data cache (Modified when the store
// path owns it, Shared otherwise), maintaining inclusion bookkeeping via
// the cache hooks.
func (n *node) fillL1D(line addr.LineAddr, modified bool) {
	st := coherence.Shared
	if modified {
		st = coherence.Modified
	}
	n.l1d.Allocate(line, st)
}

// onL2Allocate maintains the RCA line counts (inclusion between region
// state and cache contents).
func (n *node) onL2Allocate(l cache.Line) {
	n.sys.trackFill(n.id, l.Addr)
	if n.rca != nil {
		n.rca.IncLineCount(n.sys.geom.RegionOfLine(l.Addr), core.ModifiableLine(l.State))
	}
	if n.crh != nil {
		n.crh.Inc(n.sys.geom.RegionOfLine(l.Addr))
	}
}

// onL2Evict handles a line leaving the L2: back-invalidate the L1 copies,
// maintain the RCA line count, and issue the write-back for dirty
// capacity evictions. Externally forced invalidations (wasEviction false)
// do not write back here — the coherence action decides what happens to
// the data.
func (n *node) onL2Evict(l cache.Line, wasEviction bool) {
	n.sys.trackDrop(n.id, l.Addr)
	n.l1i.Invalidate(l.Addr)
	n.l1d.Invalidate(l.Addr)
	if n.rca != nil {
		n.rca.DecLineCount(n.sys.geom.RegionOfLine(l.Addr), core.ModifiableLine(l.State))
	}
	if n.crh != nil {
		n.crh.Dec(n.sys.geom.RegionOfLine(l.Addr))
	}
	if wasEviction && l.State.Dirty() {
		n.issueRequest(coherence.ReqWriteback, l.Addr, n.now(), false)
	} else if wasEviction {
		// Silent clean eviction: the directory fabric needs a replacement
		// hint so it never believes we still hold the line; the snooping
		// fabric ignores it.
		n.sys.fabric.lineEvicted(n, l.Addr)
	}
}

// onL2StateChange keeps the RCA's modifiable-line count when a cached
// line crosses the E/O/M boundary (E→S and S→M do; E→M and M→O do not).
func (n *node) onL2StateChange(line addr.LineAddr, from, to coherence.LineState) {
	if n.rca != nil && core.ModifiableLine(from) != core.ModifiableLine(to) {
		n.rca.AdjustModLines(n.sys.geom.RegionOfLine(line), core.ModifiableLine(to))
	}
}

// onRegionEvict enforces RCA/cache inclusion: before a region entry is
// displaced, every cached line of the region is flushed (dirty ones are
// written back directly to the region's home controller).
func (n *node) onRegionEvict(e core.Entry) {
	g := n.sys.geom
	for i := 0; i < g.LinesPerRegion(); i++ {
		line := g.LineInRegion(e.Region, i)
		st := n.l2.Lookup(line)
		if !st.Valid() {
			continue
		}
		if st.Dirty() {
			n.sys.fabric.flushWriteback(n, line, n.sys.topo.HomeControllerRegion(e.Region), n.now())
		} else {
			// Clean lines leave silently; the directory fabric still needs
			// the replacement hint (no-op on the snooping fabric).
			n.sys.fabric.lineEvicted(n, line)
		}
		n.l2.Invalidate(line) // fires onL2Evict: L1 back-inval + count
	}
}

// maybeFinish marks the node complete when its trace, store buffer and
// outstanding requests have all drained.
func (n *node) maybeFinish() {
	if n.finished || n.haveOp || n.stalled || n.storeStalled {
		return
	}
	if n.storeBufUsed > 0 || n.outstanding > 0 {
		return
	}
	if !n.genExhausted {
		return
	}
	n.finished = true
	n.sys.nodeDone(n.now())
}
