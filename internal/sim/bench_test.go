package sim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"cgct/internal/addr"
	"cgct/internal/cache"
	"cgct/internal/coherence"
	"cgct/internal/config"
	"cgct/internal/workload"
)

// runMallocs returns how many heap objects simulating benchmark name on cfg
// for ops operations per processor allocates, from the start of the run
// to its end (building the workload and the system excluded).
func runMallocs(t *testing.T, cfg config.Config, name string, ops int) uint64 {
	t.Helper()
	s := MustNew(cfg, testWorkload(t, name, cfg.Topology.Processors, ops, 7), 7)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s.Run()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// allocBudget is how many more heap objects an 80K-op-per-processor run
// may allocate than a 20K-op one. A run's allocations are set-up work —
// caches, RCAs, the event pool, mshrs and waiter slices as they first fill
// — so quadrupling its length adds only the few objects that rarer peaks
// of in-flight work first reach (+19 for tpc-b and +63 for specweb99 on
// CGCT when this gate was set).
const allocBudget = 100

// TestSteadyStateAllocationBudget gates the simulator's steady state on
// the snooping fabric, for the baseline and for CGCT: the extra 60K ops
// per processor stay within allocBudget objects. The directory fabric is
// not gated: its home records grow with the directory's working set (a
// 4-processor tpc-b run allocated 10.6K objects at 20K ops per processor
// and 19.2K at 80K), which a longer run legitimately reaches.
func TestSteadyStateAllocationBudget(t *testing.T) {
	for _, name := range []string{"tpc-b", "specweb99"} {
		for _, cfg := range []config.Config{config.Default(), config.Default().WithCGCT(512)} {
			short := runMallocs(t, cfg, name, 20_000)
			long := runMallocs(t, cfg, name, 80_000)
			t.Logf("%s cgct=%v: %d objects at 20K ops/proc, %d at 80K", name, cfg.CGCTEnabled, short, long)
			if long > short+allocBudget {
				t.Errorf("%s cgct=%v: 80K ops/proc allocated %d objects, 20K allocated %d (budget +%d)",
					name, cfg.CGCTEnabled, long, short, allocBudget)
			}
		}
	}
}

// bigCGCT returns cfg with CGCT on and 16 processors, and a tpc-b
// workload for it.
func bigCGCT(tb testing.TB, cfg config.Config) (config.Config, workload.Workload) {
	tb.Helper()
	return tpcbMachine(tb, cfg.WithCGCT(512), 16)
}

// tpcbMachine returns cfg with procs processors, and a tpc-b workload for
// it at 20K ops per processor.
func tpcbMachine(tb testing.TB, cfg config.Config, procs int) (config.Config, workload.Workload) {
	tb.Helper()
	cfg.Topology.Processors = procs
	w, err := workload.Build("tpc-b", workload.Params{Processors: procs, OpsPerProc: 20_000, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	return cfg, w
}

// footprintBudget bounds the heap New allocates for the default
// 16-processor CGCT machine. Most of it is tag state: per node, one 8-byte
// word per L1 and L2 way and one 16-byte record per RCA way, 396 KiB.
const footprintBudget = 7 << 20

// TestSystemFootprint gates the host memory of a simulated machine: New
// for the default 16-processor CGCT machine allocates at most
// footprintBudget bytes of heap. It measures a cold build: two GCs first
// empty the pools of released tag storage, which would otherwise make a
// grown machine look small.
func TestSystemFootprint(t *testing.T) {
	cfg, w := bigCGCT(t, config.Default())
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := MustNew(cfg, w, 7)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("New allocated %.2f MiB", float64(got)/(1<<20))
	if got > footprintBudget {
		t.Errorf("New allocated %.2f MiB for a 16-processor CGCT machine, budget %.2f MiB",
			float64(got)/(1<<20), float64(footprintBudget)/(1<<20))
	}
}

var systemSink *System

// BenchmarkNewSystem builds the machine TestSystemFootprint measures; run
// it with -benchmem for its bytes per build.
func BenchmarkNewSystem(b *testing.B) {
	cfg, w := bigCGCT(b, config.Default())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		systemSink = MustNew(cfg, w, 7)
	}
}

// BenchmarkNewSystemRecycled builds the same machine and releases it in
// every iteration, after one untimed build and release, so every timed
// build reuses the last one's tag storage; its B/op is what a machine
// costs beyond that storage.
func BenchmarkNewSystemRecycled(b *testing.B) {
	cfg, w := bigCGCT(b, config.Default())
	MustNew(cfg, w, 7).Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		systemSink = MustNew(cfg, w, 7)
		systemSink.Release()
	}
}

// warmTransactionSystem returns a procs-processor tpc-b system on the
// given configuration, warmed by simulating the workload to completion,
// and the lines its L2s then hold, sorted, an odd number of them so that a
// round-robin over the nodes sends each line to every node in turn. The
// run is stepped by hand rather than through RunContext, which closes the
// fabric; the caller closes it.
func warmTransactionSystem(b *testing.B, cfg config.Config, procs int) (*System, []addr.LineAddr) {
	b.Helper()
	cfg, w := tpcbMachine(b, cfg, procs)
	s := MustNew(cfg, w, 7)
	s.start()
	for {
		if _, finished := s.stepChunk(); finished {
			break
		}
	}
	seen := map[addr.LineAddr]bool{}
	for _, n := range s.nodes {
		n.l2.ForEachValid(func(l cache.Line) { seen[l.Addr] = true })
	}
	lines := make([]addr.LineAddr, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	slices.Sort(lines)
	return s, lines[:len(lines)-1+len(lines)%2]
}

// benchmarkTransaction times one coherence transaction per iteration on a
// warm procs-processor system: node i mod procs requests line i mod
// len(lines), a read when it holds no copy and a read-for-ownership when
// it does. Each iteration opens the request as issue does — the
// outstanding and demand counts and the mshr that completeFill releases —
// runs the transaction, and drains the events it schedules (the fill,
// write-backs of displaced lines).
func benchmarkTransaction(b *testing.B, cfg config.Config, procs int, transact func(s *System, n *node, kind coherence.ReqKind, line addr.LineAddr)) {
	s, lines := warmTransactionSystem(b, cfg, procs)
	defer s.fabric.close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := s.nodes[i%len(s.nodes)]
		line := lines[i%len(lines)]
		kind := coherence.ReqRead
		if n.l2.Lookup(line).Valid() {
			kind = coherence.ReqReadExcl
		} else {
			n.outstandingDemand++
		}
		n.outstanding++
		n.mshrs.open(line)
		transact(s, n, kind, line)
		for s.queue.Step() {
		}
	}
}

// BenchmarkSnoopTransaction times one snooping-bus broadcast — the snoop
// phase over the remote nodes, the MOESI and region actions, and the
// requester's fill — without region tracking, with CGCT and with
// RegionScout, at 4 and 16 processors.
func BenchmarkSnoopTransaction(b *testing.B) {
	for _, v := range []struct {
		name string
		cfg  config.Config
	}{
		{"baseline", config.Default()},
		{"cgct", config.Default().WithCGCT(512)},
		{"scout", config.Default().WithRegionScout(512)},
	} {
		for _, procs := range []int{4, 16} {
			b.Run(fmt.Sprintf("%s/%dp", v.name, procs), func(b *testing.B) {
				benchmarkTransaction(b, v.cfg, procs, func(s *System, n *node, kind coherence.ReqKind, line addr.LineAddr) {
					s.fabric.(*snoopFabric).performBroadcast(n, kind, line, s.geom.RegionOfLine(line), s.queue.Now(), false)
				})
			})
		}
	}
}

// BenchmarkDirectoryTransaction times one full directory home transaction
// on the 16-processor CGCT machine: the oracle, the region gather and
// notifications, the record update and the invalidations or three-hop
// transfer it implies. A record the transaction creates takes a free
// slot of the home's table.
func BenchmarkDirectoryTransaction(b *testing.B) {
	benchmarkTransaction(b, config.Default().WithDirectory().WithCGCT(512), 16, func(s *System, n *node, kind coherence.ReqKind, line addr.LineAddr) {
		f := s.fabric.(*directoryFabric)
		f.resolve(n, kind, line, s.topo.HomeController(addr.Addr(line)), s.queue.Now(), false)
	})
}
