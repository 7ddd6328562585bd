// Package sim is the discrete-event timing simulator: it assembles
// processor nodes (L1I/L1D/L2, optional Region Coherence Array, stream
// prefetcher, trace consumer), the broadcast address bus, the data network
// and the memory controllers, and runs a workload to completion.
//
// One Run is fully deterministic given (workload, config, seed). Baseline
// mode broadcasts every fabric request; CGCT mode consults the region
// protocol first (internal/core) and sends requests directly to memory —
// or completes them locally — whenever the region state allows.
package sim

import (
	"context"
	"fmt"
	"sync/atomic"

	"cgct/internal/addr"
	"cgct/internal/bus"
	"cgct/internal/cache"
	"cgct/internal/coherence"
	"cgct/internal/config"
	"cgct/internal/core"
	"cgct/internal/event"
	"cgct/internal/faultinject"
	"cgct/internal/memctrl"
	"cgct/internal/regionscout"
	"cgct/internal/rng"
	"cgct/internal/stats"
	"cgct/internal/topology"
	"cgct/internal/workload"
)

// System is one assembled machine plus its workload.
type System struct {
	cfg    config.Config
	geom   addr.Geometry
	topo   *topology.Topology
	queue  event.Queue
	fabric coherenceFabric
	dnet   *bus.DataNet
	mcs    []*memctrl.Controller
	nodes  []*node
	r      *rng.Source // perturbation stream

	// Each structure the fabrics snoop keeps every node's copy in one
	// bank, which one scan answers for all nodes (snoopScan). rcas is nil
	// without CGCT, crhs and nsrts without RegionScout.
	l2s   l2Bank
	rcas  *core.RCABank
	crhs  *regionscout.CRHBank
	nsrts *regionscout.NSRTs
	scan  snoopScan

	// horizon bounds how far a node may run ahead of global time while it
	// is only hitting in its caches (CPU cycles); see Config.BatchHorizon.
	horizon event.Cycle

	// DebugChecks enables the expensive global invariants (used by tests):
	// every non-broadcast route is validated against the true global cache
	// state, region exclusivity is checked after every broadcast, and the
	// data-version checker below verifies that no processor ever reads a
	// stale copy.
	DebugChecks bool

	// PanicOnViolation makes RunContext re-panic on invariant violations
	// instead of converting them to an error — the right mode for
	// verification harnesses (cgctverify) that want a crash with a stack.
	PanicOnViolation bool

	// Data-version checker (allocated by Run when DebugChecks is set):
	// verGlobal is the committed write version of every line; verNode is
	// the version each node's cached copy carries. The coherence
	// guarantee — any valid copy is current — becomes the assertion
	// verNode[n][line] == verGlobal[line] on every load hit.
	verGlobal map[addr.LineAddr]uint64
	verNode   []map[addr.LineAddr]uint64

	run  stats.Run
	done int
}

// l2Bank is a machine's L2s: each node's cache, and the snoop scan that
// finds which of them hold a line — a cache.Bank, or a cache.SectoredBank
// for sectored L2s.
type l2Bank interface {
	Store(i int) cache.Store
	Holders(l addr.LineAddr, dst []cache.Holder) []cache.Holder
	Release()
}

// New assembles a system for the given workload. The workload must provide
// exactly cfg.Topology.Processors op streams (generators or batched
// sources).
func New(cfg config.Config, w workload.Workload, seed uint64) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if w.Procs() != cfg.Topology.Processors {
		return nil, fmt.Errorf("sim: workload has %d op streams, config has %d processors",
			w.Procs(), cfg.Topology.Processors)
	}
	geom, err := cfg.Geometry()
	if err != nil {
		return nil, err
	}
	topo, err := topology.New(cfg.Topology)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:     cfg,
		geom:    geom,
		topo:    topo,
		dnet:    bus.NewDataNet(cfg.Topology.Processors, cfg.Net, cfg.L2.LineBytes),
		r:       rng.New(seed ^ 0xc0ffee_5eed),
		horizon: event.Cycle(cfg.BatchHorizon()),
	}
	for i := 0; i < topo.MemControllers(); i++ {
		s.mcs = append(s.mcs, memctrl.New(i, cfg.Net.MemCtrlBanks, cfg.Net.DRAMLatency, cfg.Net.DRAMBankOccupancy))
	}
	if cfg.Directory {
		s.fabric = newDirectoryFabric(s)
	} else {
		s.fabric = newSnoopFabric(s)
	}
	procs := cfg.Topology.Processors
	if cfg.L2SectorBytes > 0 {
		s.l2s = cache.NewSectoredBank("l2", procs, cfg.L2.SizeBytes, cfg.L2.Assoc, cfg.L2.LineBytes, cfg.L2SectorBytes)
	} else {
		s.l2s = cache.NewBank("l2", procs, cfg.L2.SizeBytes, cfg.L2.Assoc, cfg.L2.LineBytes)
	}
	if cfg.CGCTEnabled {
		s.rcas = core.NewRCABank(geom, procs, cfg.RCA.Sets, cfg.RCA.Assoc)
	}
	if cfg.Scout.Enabled {
		s.crhs = regionscout.NewCRHBank(procs, cfg.Scout.CRHCounters, cfg.RCA.RegionBytes)
		s.nsrts = regionscout.NewNSRTs(procs, cfg.Scout.NSRTEntries, cfg.Scout.NSRTAssoc, cfg.RCA.RegionBytes)
	}
	for i := 0; i < procs; i++ {
		s.nodes = append(s.nodes, newNode(s, i, w.Source(i)))
	}
	return s, nil
}

// MustNew is New that panics on error.
func MustNew(cfg config.Config, w workload.Workload, seed uint64) *System {
	s, err := New(cfg, w, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// Run executes the workload to completion and returns the collected
// statistics. It may be called once per System. It discards RunContext's
// error, so it is only for callers that set PanicOnViolation (cgctverify)
// and for tests.
func (s *System) Run() *stats.Run {
	r, _ := s.RunContext(context.Background())
	return r
}

// cancelCheckEvents is how many events RunContext executes between context
// checks — frequent enough that cancellation lands within microseconds,
// rare enough to be free on the hot path. progressChunkEvents is the finer
// cadence at which the Progress counter advances within a batch: a full
// batch can take longer than a watchdog's stall window on a slow machine
// (or under the race detector), so liveness must be visible sub-batch.
const (
	cancelCheckEvents   = 1 << 16
	progressChunkEvents = 1 << 12
)

// RunContext executes the workload to completion or until ctx is
// cancelled, whichever comes first. On cancellation it returns the
// (partial, unusable) statistics alongside ctx's error; callers must treat
// a non-nil error as "no result". It may be called once per System.
//
// Invariant violations (coherence.InvariantError, raised by the
// DebugChecks machinery) are returned as errors unless PanicOnViolation is
// set; any other panic propagates unchanged.
func (s *System) RunContext(ctx context.Context) (run *stats.Run, err error) {
	defer func() {
		if r := recover(); r != nil {
			ie, ok := r.(*coherence.InvariantError)
			if !ok || s.PanicOnViolation {
				panic(r)
			}
			run, err = &s.run, ie
		}
	}()
	// Release fabric resources (process-wide gauges) on every exit path,
	// including cancellation and recovered invariant violations.
	defer s.fabric.close()
	s.start()
	done := ctx.Done()
	progress := ProgressFrom(ctx)
	for {
		if ferr := faultinject.Fire(faultinject.PointSimEventLoop); ferr != nil {
			return &s.run, ferr
		}
		for chunk := 0; chunk < cancelCheckEvents/progressChunkEvents; chunk++ {
			n, finished := s.stepChunk()
			eventsTotal.Add(uint64(n))
			if progress != nil {
				progress.events.Add(uint64(n))
			}
			if finished {
				return &s.run, nil
			}
		}
		if done != nil {
			select {
			case <-done:
				return &s.run, ctx.Err()
			default:
			}
		}
	}
}

// start arms the system for execution: debug-check state and the
// initial per-node events. RunContext calls it once.
func (s *System) start() {
	if s.DebugChecks {
		s.verGlobal = make(map[addr.LineAddr]uint64)
		s.verNode = make([]map[addr.LineAddr]uint64, len(s.nodes))
		for i := range s.verNode {
			s.verNode[i] = make(map[addr.LineAddr]uint64)
		}
	}
	for _, n := range s.nodes {
		n.schedule(0)
	}
}

// stepChunk executes up to progressChunkEvents events and returns how
// many ran, plus whether the run completed (statistics collected). It is
// the resumable primitive RunContext batches its progress/cancellation
// bookkeeping around.
func (s *System) stepChunk() (executed int, finished bool) {
	for i := 0; i < progressChunkEvents; i++ {
		if !s.queue.Step() {
			s.collect()
			return i, true
		}
	}
	return progressChunkEvents, false
}

// eventsTotal counts simulated events executed process-wide across every
// run, at batch granularity — the simulator's contribution to the
// observability registry (the job server exposes it as a Prometheus
// counter). Unlike Progress it is unconditional: standalone CLIs and
// benchmark runs count too.
var eventsTotal atomic.Uint64

// EventsTotal returns the number of events executed process-wide, at
// batch granularity.
func EventsTotal() uint64 { return eventsTotal.Load() }

// Progress is a shared counter of simulated events, advanced by RunContext
// once per event batch. A watchdog can poll Events to detect a stalled
// (livelocked or fault-delayed) simulation without touching the hot path.
type Progress struct {
	events atomic.Uint64
}

// Events returns the number of events executed so far (batch granularity).
func (p *Progress) Events() uint64 { return p.events.Load() }

// Add advances the counter by n. Besides RunContext's own batches, the
// workload-preparation path (compiled-trace generation) feeds the same
// counter, so a watchdog polling Events sees liveness from the moment a
// job starts, not only once simulation events begin.
func (p *Progress) Add(n uint64) { p.events.Add(n) }

type progressCtxKey struct{}

// WithProgress returns a context that makes RunContext advance p as it
// executes events.
func WithProgress(ctx context.Context, p *Progress) context.Context {
	return context.WithValue(ctx, progressCtxKey{}, p)
}

// ProgressFrom returns the Progress carried by ctx, or nil.
func ProgressFrom(ctx context.Context) *Progress {
	p, _ := ctx.Value(progressCtxKey{}).(*Progress)
	return p
}

// perturb returns t plus the configured random request perturbation.
func (s *System) perturb(t event.Cycle) event.Cycle {
	if s.cfg.PerturbMaxCycles == 0 {
		return t
	}
	return t + event.Cycle(s.r.Uint64n(s.cfg.PerturbMaxCycles+1))
}

// nodeDone records one node's completion.
func (s *System) nodeDone(finish event.Cycle) {
	s.done++
	if finish > s.run.Cycles {
		s.run.Cycles = finish
	}
}

// fabricTraffic counts coherence-fabric messages process-wide by kind,
// advanced once per completed run (collect) — the fabric's contribution to
// the observability registry (cgct_fabric_messages_total).
var fabricBroadcasts, fabricDirects, fabricLocals, fabricDirMessages atomic.Uint64

// FabricTraffic reports process-wide coherence traffic by message kind:
// bus broadcasts, direct/point-to-point requests, local completions, and
// directory protocol messages. Counters advance at run completion.
func FabricTraffic() (broadcasts, directs, locals, dirMessages uint64) {
	return fabricBroadcasts.Load(), fabricDirects.Load(), fabricLocals.Load(), fabricDirMessages.Load()
}

// collect folds per-component statistics into the run record.
func (s *System) collect() {
	s.fabric.collect(&s.run)
	var directs, locals uint64
	for k := range s.run.Directs {
		directs += s.run.Directs[k]
		locals += s.run.LocalDones[k]
	}
	fabricBroadcasts.Add(s.run.TotalBroadcasts())
	fabricDirects.Add(directs)
	fabricLocals.Add(locals)
	fabricDirMessages.Add(s.run.DirMessages)
	for _, mc := range s.mcs {
		s.run.DRAMReads += mc.Stats.Reads
		s.run.DRAMWrites += mc.Stats.Writes
	}
	s.run.DataTransfers = s.dnet.TotalXfers
	for _, n := range s.nodes {
		s.run.Instructions += n.instructions
		s.run.L2Hits += n.l2.BaseStats().Hits
		s.run.L2Misses += n.l2.BaseStats().Misses
		if n.nsrt != nil {
			s.run.NSRTInserts += n.nsrt.Inserts
			s.run.NSRTHits += n.nsrt.Hits
			s.run.NSRTEvicted += n.nsrt.Evicted
		}
		if n.rca != nil {
			st := n.rca.Stats
			s.run.RCAHits += st.Hits
			s.run.RCAMisses += st.Misses
			s.run.RCAEvictions += st.Evictions
			s.run.RCASelfInvals += st.SelfInvals
			s.run.RCALineSumAtEvict += st.LineSumAtEvict
			for i := range st.EvictedByCount {
				s.run.RCAEvictedByCount[i] += st.EvictedByCount[i]
			}
		}
	}
}

// Release hands every node's L1I and L1D tag storage, and the machine's
// L2, RCA and cached-region-hash banks, back for the next machines New
// builds. Call it only once the run's statistics have been read, as cgct's
// summarize does when it copies every counter: afterwards, running or
// probing s panics. Callers that inspect a System after its run, such as
// tests and cgctverify, do not release it. A second Release does nothing.
func (s *System) Release() {
	for _, n := range s.nodes {
		n.l1i.Release()
		n.l1d.Release()
	}
	s.l2s.Release()
	if s.rcas != nil {
		s.rcas.Release()
	}
	if s.crhs != nil {
		s.crhs.Release()
	}
}

// Nodes returns the node count (diagnostics).
func (s *System) Nodes() int { return len(s.nodes) }

// lineStateAnywhere reports whether any node other than exclude caches the
// line, and whether any such copy is writable-capable (E/O/M), by scanning
// every node: the reference the debug invariants check routes and the
// directory's record-filtered oracle against.
func (s *System) lineStateAnywhere(exclude int, l addr.LineAddr) (valid, writable bool) {
	for _, n := range s.nodes {
		if n.id == exclude {
			continue
		}
		st := n.l2.Lookup(l)
		if !st.Valid() {
			continue
		}
		valid = true
		if st.Dirty() || st == coherence.Exclusive {
			writable = true
		}
	}
	return valid, writable
}

// trackFill records that node nid received the current data of line.
func (s *System) trackFill(nid int, line addr.LineAddr) {
	if s.verGlobal == nil {
		return
	}
	s.verNode[nid][line] = s.verGlobal[line]
}

// trackWrite records a committed write by node nid (called once per
// modifiable-state acquisition; repeated stores to an already-Modified
// line do not change visibility).
func (s *System) trackWrite(nid int, line addr.LineAddr) {
	if s.verGlobal == nil {
		return
	}
	s.verGlobal[line]++
	s.verNode[nid][line] = s.verGlobal[line]
}

// trackDrop records that node nid no longer holds line.
func (s *System) trackDrop(nid int, line addr.LineAddr) {
	if s.verGlobal == nil {
		return
	}
	delete(s.verNode[nid], line)
}

// checkRead asserts node nid's cached copy of line is current.
func (s *System) checkRead(nid int, line addr.LineAddr) {
	if s.verGlobal == nil {
		return
	}
	if have, want := s.verNode[nid][line], s.verGlobal[line]; have != want {
		coherence.Violate(coherence.InvariantError{
			Check: "data-version", Line: uint64(line),
			Detail: fmt.Sprintf("p%d read stale data (version %d, world at %d)", nid, have, want),
		})
	}
}
