package sim

import (
	"testing"

	"cgct/internal/addr"
	"cgct/internal/cache"
	"cgct/internal/coherence"
	"cgct/internal/config"
	"cgct/internal/core"
	"cgct/internal/rng"
	"cgct/internal/stats"
	"cgct/internal/workload"
)

func testWorkload(t *testing.T, name string, procs, ops int, seed uint64) workload.Workload {
	t.Helper()
	w, err := workload.Build(name, workload.Params{Processors: procs, OpsPerProc: ops, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBaselineBroadcastsEverything(t *testing.T) {
	cfg := config.Default()
	s := MustNew(cfg, testWorkload(t, "ocean", 4, 20_000, 1), 1)
	run := s.Run()
	if run.TotalRequests() == 0 {
		t.Fatal("no fabric requests")
	}
	var directs, locals uint64
	for k := 0; k < coherence.NKinds; k++ {
		directs += run.Directs[k]
		locals += run.LocalDones[k]
	}
	if directs != 0 || locals != 0 {
		t.Errorf("baseline produced %d directs, %d locals", directs, locals)
	}
	if run.TotalBroadcasts() != run.TotalRequests() {
		t.Errorf("broadcasts %d != requests %d", run.TotalBroadcasts(), run.TotalRequests())
	}
}

// TestCGCTInvariantsAllBenchmarks runs every benchmark at every region size
// with the coherence invariants armed: non-broadcast routes are validated
// against the true global cache state, and region exclusivity is checked
// after every broadcast. Any violation panics.
func TestCGCTInvariantsAllBenchmarks(t *testing.T) {
	ops := 15_000
	if testing.Short() {
		ops = 4_000
	}
	for _, name := range workload.Names() {
		for _, region := range []uint64{256, 512, 1024} {
			cfg := config.Default().WithCGCT(region)
			s := MustNew(cfg, testWorkload(t, name, 4, ops, 11), 11)
			s.DebugChecks = true
			run := s.Run()
			if run.Cycles == 0 || run.TotalRequests() == 0 {
				t.Errorf("%s/%dB: empty run", name, region)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, cg := range []bool{false, true} {
		cfg := config.Default()
		if cg {
			cfg = cfg.WithCGCT(512)
		}
		a := MustNew(cfg, testWorkload(t, "tpc-b", 4, 20_000, 9), 9).Run()
		b := MustNew(cfg, testWorkload(t, "tpc-b", 4, 20_000, 9), 9).Run()
		if a.Cycles != b.Cycles || a.TotalRequests() != b.TotalRequests() ||
			a.TotalBroadcasts() != b.TotalBroadcasts() || a.CacheToCache != b.CacheToCache {
			t.Errorf("cgct=%v: reruns differ: %d/%d cycles, %d/%d bcasts",
				cg, a.Cycles, b.Cycles, a.TotalBroadcasts(), b.TotalBroadcasts())
		}
	}
}

func TestPerturbationChangesTimingOnly(t *testing.T) {
	cfg := config.Default()
	cfg.PerturbMaxCycles = 40
	a := MustNew(cfg, testWorkload(t, "ocean", 4, 20_000, 3), 3).Run()
	cfg2 := config.Default()
	cfg2.PerturbMaxCycles = 40
	b := MustNew(cfg2, testWorkload(t, "ocean", 4, 20_000, 3), 4).Run() // different sim seed
	if a.Cycles == b.Cycles {
		t.Error("perturbation seeds produced identical run times (suspicious)")
	}
	// The request stream itself is the same workload.
	diff := int64(a.TotalRequests()) - int64(b.TotalRequests())
	if diff < -2000 || diff > 2000 {
		t.Errorf("request counts diverged too much: %d vs %d", a.TotalRequests(), b.TotalRequests())
	}
}

func TestCGCTNeverSlower(t *testing.T) {
	ops := 25_000
	if testing.Short() {
		ops = 8_000
	}
	// The broadcast-reduction guarantee only holds for workloads with some
	// non-shared traffic; micro-migratory is all-necessary by design, so
	// this test covers the paper's nine benchmarks.
	for _, name := range workload.PaperNames() {
		base := MustNew(config.Default(), testWorkload(t, name, 4, ops, 5), 5).Run()
		cg := MustNew(config.Default().WithCGCT(512), testWorkload(t, name, 4, ops, 5), 5).Run()
		if float64(cg.Cycles) > 1.02*float64(base.Cycles) {
			t.Errorf("%s: CGCT slower than baseline (%d vs %d cycles)", name, cg.Cycles, base.Cycles)
		}
		if cg.TotalBroadcasts() >= base.TotalBroadcasts() {
			t.Errorf("%s: CGCT did not reduce broadcasts (%d vs %d)",
				name, cg.TotalBroadcasts(), base.TotalBroadcasts())
		}
	}
}

// TestPostRunInclusionInvariants checks, after a full CGCT run, that the
// structural invariants hold in the final state: the L1s are subsets of
// the L2, every cached line has a region entry, the region line counts
// and modifiable-line counts equal the cached-line counts, and no region
// is exclusive at two nodes. It runs on the conventional L2 and on a
// sectored one, whose state-change hook feeds the modifiable counts too.
func TestPostRunInclusionInvariants(t *testing.T) {
	for _, sectorBytes := range []uint64{0, 512} {
		cfg := config.Default().WithCGCT(512)
		cfg.L2SectorBytes = sectorBytes
		s := MustNew(cfg, testWorkload(t, "specweb99", 4, 30_000, 2), 2)
		s.Run()
		checkPostRunInclusion(t, s)
	}
}

func checkPostRunInclusion(t *testing.T, s *System) {
	t.Helper()
	for _, n := range s.nodes {
		// L1D/L1I ⊆ L2 (inclusion).
		n.l1d.ForEachValid(func(l cache.Line) {
			if !n.l2.Lookup(l.Addr).Valid() {
				t.Errorf("p%d: L1D line %x not in L2", n.id, uint64(l.Addr))
			}
		})
		n.l1i.ForEachValid(func(l cache.Line) {
			if !n.l2.Lookup(l.Addr).Valid() {
				t.Errorf("p%d: L1I line %x not in L2", n.id, uint64(l.Addr))
			}
		})
		// Cached line => region entry present, and counts match.
		counts := map[addr.RegionAddr]int{}
		mods := map[addr.RegionAddr]int{}
		n.l2.ForEachValid(func(l cache.Line) {
			counts[s.geom.RegionOfLine(l.Addr)]++
			if core.ModifiableLine(l.State) {
				mods[s.geom.RegionOfLine(l.Addr)]++
			}
		})
		for region, want := range counts {
			e := n.rca.Probe(region)
			if !e.State.Valid() {
				t.Errorf("p%d: region %x has %d cached lines but no RCA entry", n.id, uint64(region), want)
				continue
			}
			if e.LineCount != want {
				t.Errorf("p%d: region %x line count %d, cached %d", n.id, uint64(region), e.LineCount, want)
			}
		}
		// Region entry line counts never exceed reality.
		n.rca.ForEachValid(func(e core.Entry) {
			if e.LineCount != counts[e.Region] {
				t.Errorf("p%d: region %x count %d, cached %d", n.id, uint64(e.Region), e.LineCount, counts[e.Region])
			}
			if e.ModLines != mods[e.Region] {
				t.Errorf("p%d: region %x modifiable count %d, cached %d", n.id, uint64(e.Region), e.ModLines, mods[e.Region])
			}
		})
	}
	// No two nodes exclusive on one region.
	holders := map[addr.RegionAddr]int{}
	for _, n := range s.nodes {
		n.rca.ForEachValid(func(e core.Entry) {
			if e.State.Exclusive() {
				holders[e.Region]++
			}
		})
	}
	for region, n := range holders {
		if n > 1 {
			t.Errorf("region %x exclusively held by %d nodes", uint64(region), n)
		}
	}
}

func TestCGCTWritebacksNeverBroadcast(t *testing.T) {
	cfg := config.Default().WithCGCT(512)
	s := MustNew(cfg, testWorkload(t, "tpc-b", 4, 30_000, 7), 7)
	run := s.Run()
	if run.Broadcasts[coherence.ReqWriteback] != 0 {
		t.Errorf("CGCT broadcast %d write-backs; inclusion guarantees a region entry",
			run.Broadcasts[coherence.ReqWriteback])
	}
	if run.Directs[coherence.ReqWriteback] == 0 {
		t.Error("no direct write-backs at all")
	}
}

func TestDCBZCompletesLocallyInExclusiveRegions(t *testing.T) {
	cfg := config.Default().WithCGCT(512)
	s := MustNew(cfg, testWorkload(t, "specjbb2000", 4, 40_000, 3), 3)
	s.DebugChecks = true
	run := s.Run()
	if run.LocalDones[coherence.ReqDCBZ] == 0 {
		t.Error("page zeroing never completed locally despite exclusive regions")
	}
}

func TestOracleCountsConsistent(t *testing.T) {
	s := MustNew(config.Default(), testWorkload(t, "barnes", 4, 25_000, 1), 1)
	run := s.Run()
	classified := run.TotalUnnecessary()
	for _, v := range run.OracleNecessary {
		classified += v
	}
	// Every non-writeback broadcast is classified exactly once; write-backs
	// are recorded as unnecessary without a necessary counterpart.
	if classified != run.TotalBroadcasts() {
		t.Errorf("classified %d of %d broadcasts", classified, run.TotalBroadcasts())
	}
}

func TestSystemValidation(t *testing.T) {
	cfg := config.Default()
	w := testWorkload(t, "ocean", 2, 100, 1) // wrong processor count
	if _, err := New(cfg, w, 1); err == nil {
		t.Error("mismatched generator count accepted")
	}
	bad := cfg
	bad.Topology.Processors = 0
	if _, err := New(bad, w, 1); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestNodeCount(t *testing.T) {
	s := MustNew(config.Default(), testWorkload(t, "ocean", 4, 100, 1), 1)
	if s.Nodes() != 4 {
		t.Errorf("Nodes = %d", s.Nodes())
	}
}

func TestSixteenProcessorTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := config.Default().WithCGCT(512)
	cfg.Topology.Processors = 16
	s := MustNew(cfg, testWorkload(t, "tpc-b", 16, 5_000, 1), 1)
	s.DebugChecks = true
	run := s.Run()
	if run.TotalRequests() == 0 {
		t.Fatal("16-processor run produced nothing")
	}
}

func TestScaledBackProtocolInvariants(t *testing.T) {
	// The §3.4 three-state variant must be just as coherent as the full
	// protocol, only less effective.
	cfg := config.Default().WithCGCT(512)
	cfg.RCA.ThreeState = true
	s := MustNew(cfg, testWorkload(t, "specweb99", 4, 20_000, 4), 4)
	s.DebugChecks = true
	scaled := s.Run()

	cfg2 := config.Default().WithCGCT(512)
	s2 := MustNew(cfg2, testWorkload(t, "specweb99", 4, 20_000, 4), 4)
	full := s2.Run()

	if scaled.TotalBroadcasts() <= full.TotalBroadcasts() {
		t.Errorf("3-state should broadcast more than 7-state (%d vs %d)",
			scaled.TotalBroadcasts(), full.TotalBroadcasts())
	}
	var scaledAvoided, fullAvoided uint64
	for k := 0; k < coherence.NKinds; k++ {
		scaledAvoided += scaled.Directs[k] + scaled.LocalDones[k]
		fullAvoided += full.Directs[k] + full.LocalDones[k]
	}
	if scaledAvoided == 0 {
		t.Error("3-state avoided nothing at all")
	}
	if scaledAvoided >= fullAvoided {
		t.Errorf("3-state avoided more than 7-state (%d vs %d)", scaledAvoided, fullAvoided)
	}
}

func TestPrefetchRegionFilter(t *testing.T) {
	cfg := config.Default().WithCGCT(512)
	cfg.Proc.PrefetchRegionFilter = true
	s := MustNew(cfg, testWorkload(t, "barnes", 4, 20_000, 6), 6)
	s.DebugChecks = true
	filtered := s.Run()

	cfg2 := config.Default().WithCGCT(512)
	s2 := MustNew(cfg2, testWorkload(t, "barnes", 4, 20_000, 6), 6)
	plain := s2.Run()

	pf := func(r *stats.Run) uint64 {
		return r.Requests[coherence.ReqPrefetch] + r.Requests[coherence.ReqPrefetchExcl]
	}
	if pf(filtered) >= pf(plain) {
		t.Errorf("filter did not reduce prefetch traffic (%d vs %d)", pf(filtered), pf(plain))
	}
}

// TestRandomContentionStress drives the full protocol with random traces
// over a deliberately tiny address pool, maximising races between
// broadcasts, direct requests, upgrades, self-invalidations and region
// evictions. All debug invariants (safety of non-broadcast routes, region
// exclusivity, MOESI single-writer) are armed.
func TestRandomContentionStress(t *testing.T) {
	iterations := 20
	opsPer := 4_000
	if testing.Short() {
		iterations, opsPer = 5, 1_500
	}
	for it := 0; it < iterations; it++ {
		seed := uint64(1000 + it)
		r := rng.New(seed)
		// Pool: 4 regions' worth of hot lines plus a cold tail.
		const base = 0x400000
		gens := make([]workload.Generator, 4)
		for p := range gens {
			pr := r.Split()
			ops := make([]workload.Op, opsPer)
			for i := range ops {
				var a uint64
				if pr.Bool(0.7) {
					a = base + pr.Uint64n(4*512) // hot: 4 regions
				} else {
					a = base + 0x10000 + pr.Uint64n(1<<16) // cold tail
				}
				kind := workload.OpLoad
				switch pr.Uint64n(10) {
				case 0, 1, 2:
					kind = workload.OpStore
				case 3:
					kind = workload.OpDCBZ
				case 4:
					if pr.Bool(0.3) {
						kind = workload.OpDCBF
					}
				}
				ops[i] = workload.Op{Kind: kind, Addr: addr.Addr(a &^ 63), Gap: uint32(pr.Uint64n(20))}
			}
			gens[p] = &workload.SliceGenerator{Ops: ops}
		}
		for _, region := range []uint64{256, 1024} {
			for _, scaled := range []bool{false, true} {
				cfg := config.Default().WithCGCT(region)
				cfg.RCA.ThreeState = scaled
				cfg.RCA.Sets = 8 // tiny RCA: force region evictions and flushes
				// Rebuild generators per configuration (SliceGenerator is stateful).
				fresh := make([]workload.Generator, 4)
				for p := range fresh {
					src := gens[p].(*workload.SliceGenerator)
					fresh[p] = &workload.SliceGenerator{Ops: src.Ops}
				}
				s := MustNew(cfg, workload.Workload{Name: "stress", Generators: fresh}, seed)
				s.DebugChecks = true
				run := s.Run()
				if run.TotalRequests() == 0 {
					t.Fatalf("iter %d: no requests", it)
				}
			}
		}
	}
}

func TestRegionPrefetch(t *testing.T) {
	cfg := config.Default().WithCGCT(512)
	cfg.Proc.RegionPrefetch = true
	s := MustNew(cfg, testWorkload(t, "ocean", 4, 25_000, 12), 12)
	s.DebugChecks = true
	probed := s.Run()
	if probed.RegionProbes == 0 {
		t.Fatal("sequential streams never probed the next region")
	}

	cfg2 := config.Default().WithCGCT(512)
	s2 := MustNew(cfg2, testWorkload(t, "ocean", 4, 25_000, 12), 12)
	plain := s2.Run()
	// The probe converts first-touch broadcasts into direct requests: the
	// demand broadcast count must drop by roughly the probe count's worth.
	if probed.TotalBroadcasts() >= plain.TotalBroadcasts() {
		t.Errorf("region prefetch did not reduce demand broadcasts (%d vs %d)",
			probed.TotalBroadcasts(), plain.TotalBroadcasts())
	}
}

// TestDirectoryMode exercises the full-map directory fabric: coherent
// (line invariants + directory agreement armed), no broadcasts, and
// three-hop transfers where the snooping fabric does two-hop.
func TestDirectoryMode(t *testing.T) {
	ops := 15_000
	if testing.Short() {
		ops = 4_000
	}
	for _, name := range []string{"barnes", "tpc-h", "specweb99", "ocean"} {
		cfg := config.Default().WithDirectory()
		s := MustNew(cfg, testWorkload(t, name, 4, ops, 21), 21)
		s.DebugChecks = true
		run := s.Run()
		if run.TotalRequests() == 0 {
			t.Fatalf("%s: empty run", name)
		}
		if run.TotalBroadcasts() != 0 {
			t.Errorf("%s: directory mode broadcast %d requests", name, run.TotalBroadcasts())
		}
		if run.DirMessages == 0 {
			t.Errorf("%s: no directory messages", name)
		}
		if name == "barnes" && run.ThreeHops == 0 {
			t.Error("barnes (migratory) produced no three-hop transfers")
		}
	}
}

// TestDirectoryStress runs the contention stress trace on the directory
// fabric, with and without CGCT, with every check armed: line invariants,
// directory agreement, the record-filtered oracle and, with CGCT, region
// exclusivity. Both runs must contend hard enough to need three-hop
// transfers.
func TestDirectoryStress(t *testing.T) {
	gens := func() []workload.Generator {
		r := rng.New(77)
		gens := make([]workload.Generator, 4)
		for p := range gens {
			pr := r.Split()
			ops := make([]workload.Op, 3_000)
			for i := range ops {
				a := uint64(0x500000) + pr.Uint64n(6*512)
				kind := workload.OpLoad
				switch pr.Uint64n(8) {
				case 0, 1:
					kind = workload.OpStore
				case 2:
					kind = workload.OpDCBZ
				}
				ops[i] = workload.Op{Kind: kind, Addr: addr.Addr(a &^ 63), Gap: uint32(pr.Uint64n(16))}
			}
			gens[p] = &workload.SliceGenerator{Ops: ops}
		}
		return gens
	}
	for _, cfg := range []config.Config{
		config.Default().WithDirectory(),
		config.Default().WithCGCT(512).WithDirectory(),
	} {
		s := MustNew(cfg, workload.Workload{Name: "dir-stress", Generators: gens()}, 77)
		s.DebugChecks = true
		run := s.Run()
		if run.ThreeHops == 0 {
			t.Errorf("cgct=%v: contended trace produced no three-hop transfers", cfg.CGCTEnabled)
		}
	}
}

// TestDirectoryWithCGCT composes the RCA with the directory fabric: all
// invariants armed, and the RCA must divert some requests around the home
// pipeline (fast paths) while the system stays coherent.
func TestDirectoryWithCGCT(t *testing.T) {
	ops := 15_000
	if testing.Short() {
		ops = 4_000
	}
	for _, name := range []string{"barnes", "ocean"} {
		cfg := config.Default().WithCGCT(512).WithDirectory()
		s := MustNew(cfg, testWorkload(t, name, 4, ops, 21), 21)
		s.DebugChecks = true
		run := s.Run()
		if run.TotalBroadcasts() != 0 {
			t.Errorf("%s: directory+CGCT broadcast %d requests", name, run.TotalBroadcasts())
		}
		if run.DirFastPaths == 0 {
			t.Errorf("%s: RCA diverted nothing around the home pipeline", name)
		}
		if run.DirMessages == 0 {
			t.Errorf("%s: no directory messages", name)
		}
	}
}

// TestRegionScoutMode runs the Moshovos comparison technique with all
// coherence invariants armed and checks it lands between the baseline and
// CGCT in effectiveness.
func TestRegionScoutMode(t *testing.T) {
	ops := 20_000
	if testing.Short() {
		ops = 6_000
	}
	for _, name := range []string{"specint2000rate", "tpc-b"} {
		cfg := config.Default().WithRegionScout(512)
		s := MustNew(cfg, testWorkload(t, name, 4, ops, 31), 31)
		s.DebugChecks = true
		scout := s.Run()
		if scout.NSRTInserts == 0 || scout.NSRTHits == 0 {
			t.Fatalf("%s: NSRT never learned/hit (inserts=%d hits=%d)",
				name, scout.NSRTInserts, scout.NSRTHits)
		}
		var scoutAvoided uint64
		for k := 0; k < coherence.NKinds; k++ {
			scoutAvoided += scout.Directs[k] + scout.LocalDones[k]
		}
		if scoutAvoided == 0 {
			t.Fatalf("%s: RegionScout avoided nothing", name)
		}
		cg := MustNew(config.Default().WithCGCT(512), testWorkload(t, name, 4, ops, 31), 31).Run()
		var cgAvoided uint64
		for k := 0; k < coherence.NKinds; k++ {
			cgAvoided += cg.Directs[k] + cg.LocalDones[k]
		}
		// The paper: RegionScout "can be implemented with less storage
		// overhead and complexity ... but at the cost of effectiveness".
		if scoutAvoided >= cgAvoided {
			t.Errorf("%s: RegionScout (%d) should avoid less than CGCT (%d)",
				name, scoutAvoided, cgAvoided)
		}
	}
}

func TestRegionScoutStress(t *testing.T) {
	// Contention stress with tiny NSRT/CRH to force collisions/evictions.
	r := rng.New(99)
	gens := make([]workload.Generator, 4)
	for p := range gens {
		pr := r.Split()
		ops := make([]workload.Op, 3_000)
		for i := range ops {
			a := uint64(0x600000) + pr.Uint64n(8*512)
			kind := workload.OpLoad
			if pr.Bool(0.3) {
				kind = workload.OpStore
			}
			ops[i] = workload.Op{Kind: kind, Addr: addr.Addr(a &^ 63), Gap: uint32(pr.Uint64n(16))}
		}
		gens[p] = &workload.SliceGenerator{Ops: ops}
	}
	cfg := config.Default().WithRegionScout(512)
	cfg.Scout.NSRTEntries = 4
	cfg.Scout.NSRTAssoc = 2
	cfg.Scout.CRHCounters = 8
	s := MustNew(cfg, workload.Workload{Name: "scout-stress", Generators: gens}, 99)
	s.DebugChecks = true
	s.Run()
}

// TestDataVersionCheckerDetectsStaleReads verifies the checker itself: a
// copy whose version lags the world must trip the assertion (i.e. the
// passing runs above actually prove something).
func TestDataVersionCheckerDetectsStaleReads(t *testing.T) {
	cfg := config.Default().WithCGCT(512)
	s := MustNew(cfg, testWorkload(t, "ocean", 4, 3_000, 1), 1)
	s.DebugChecks = true
	s.Run()
	// Find a line node 0 still caches and simulate a missed invalidation:
	// the world moves on without node 0's copy being dropped.
	var victim addr.LineAddr
	found := false
	s.nodes[0].l2.ForEachValid(func(l cache.Line) {
		if !found {
			victim = l.Addr
			found = true
		}
	})
	if !found {
		t.Fatal("node 0 finished with an empty cache")
	}
	s.verGlobal[victim]++
	defer func() {
		if recover() == nil {
			t.Error("stale read not detected")
		}
	}()
	s.checkRead(0, victim)
}

// TestSnoopFilterCheckDetectsHiddenLines verifies the premise check of the
// remote-scan filters: a line cached behind the RCA's back — in a region
// the node has no entry for, or one whose entry counts no lines — must trip
// "snoop-filter" where performBroadcast and observeRemoteRegion skip the
// node (i.e. the filtered DebugChecks runs above actually prove something).
func TestSnoopFilterCheckDetectsHiddenLines(t *testing.T) {
	scans := []struct {
		name string
		scan func(s *System, line addr.LineAddr, region addr.RegionAddr)
	}{
		{"broadcast", func(s *System, line addr.LineAddr, region addr.RegionAddr) {
			s.fabric.(*snoopFabric).performBroadcast(s.nodes[0], coherence.ReqRead, line, region, 0, false)
		}},
		{"region-snoop", func(s *System, _ addr.LineAddr, region addr.RegionAddr) {
			s.observeRemoteRegion(0, region, nil)
		}},
	}
	for _, sc := range scans {
		for _, withEntry := range []bool{false, true} {
			name := sc.name + "/no-entry"
			if withEntry {
				name = sc.name + "/zero-count-entry"
			}
			t.Run(name, func(t *testing.T) {
				s := MustNew(config.Default().WithCGCT(512), testWorkload(t, "ocean", 4, 1_000, 1), 1)
				s.DebugChecks = true
				region := addr.RegionAddr(0x40000)
				line := s.geom.LineInRegion(region, 3)
				o := s.nodes[1]
				if withEntry {
					o.rca.Allocate(region, core.RegionCI)
				}
				o.l2.SetHooks(nil, nil, nil) // the fill bypasses the RCA line count
				o.l2.Allocate(line, coherence.Shared)
				defer func() {
					ie, ok := recover().(*coherence.InvariantError)
					if !ok || ie.Check != "snoop-filter" {
						t.Errorf("hidden line not detected (violation %+v)", ie)
					}
				}()
				sc.scan(s, line, region)
			})
		}
	}
}

// TestRegionCountsCheckDetectsDrift verifies the check behind region
// responses read from RCA counts: a remote entry whose modifiable-line
// count disagrees with its cache — here a region holding only a Shared
// line, counted modifiable — must trip "region-counts" where
// performBroadcast and observeRemoteRegion read the counts.
func TestRegionCountsCheckDetectsDrift(t *testing.T) {
	for _, sc := range []struct {
		name string
		scan func(s *System, line addr.LineAddr, region addr.RegionAddr)
	}{
		{"broadcast", func(s *System, line addr.LineAddr, region addr.RegionAddr) {
			s.fabric.(*snoopFabric).performBroadcast(s.nodes[0], coherence.ReqRead, line, region, 0, false)
		}},
		{"region-snoop", func(s *System, _ addr.LineAddr, region addr.RegionAddr) {
			s.observeRemoteRegion(0, region, nil)
		}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			s := MustNew(config.Default().WithCGCT(512), testWorkload(t, "ocean", 4, 1_000, 1), 1)
			s.DebugChecks = true
			region := addr.RegionAddr(0x40000)
			o := s.nodes[1]
			o.rca.Allocate(region, core.RegionCI)
			o.l2.Allocate(s.geom.LineInRegion(region, 5), coherence.Shared) // counted by the hooks
			o.rca.AdjustModLines(region, true)
			defer func() {
				ie, ok := recover().(*coherence.InvariantError)
				if !ok || ie.Check != "region-counts" {
					t.Errorf("count drift not detected (violation %+v)", ie)
				}
			}()
			sc.scan(s, s.geom.LineInRegion(region, 3), region)
		})
	}
}

// TestDirectoryOracleCheckDetectsMissingHolder verifies the check behind
// the record-filtered oracle: when a line's home record drops the node
// that holds it, the oracle reads the line as uncached and must trip
// "directory-oracle".
func TestDirectoryOracleCheckDetectsMissingHolder(t *testing.T) {
	s := MustNew(config.Default().WithDirectory(), testWorkload(t, "ocean", 4, 1_000, 1), 1)
	s.DebugChecks = true
	f := s.fabric.(*directoryFabric)
	line := addr.LineAddr(0x40000)
	home := s.topo.HomeController(addr.Addr(line))
	f.resolve(s.nodes[1], coherence.ReqRead, line, home, 0, false)
	if st := s.nodes[1].l2.Lookup(line); st != coherence.Exclusive {
		t.Fatalf("p1 holds the line in %v, want E", st)
	}
	f.dirs[home].Lookup(line).Owner = -1
	defer func() {
		ie, ok := recover().(*coherence.InvariantError)
		if !ok || ie.Check != "directory-oracle" {
			t.Errorf("missing holder not detected (violation %+v)", ie)
		}
	}()
	f.resolve(s.nodes[0], coherence.ReqRead, line, home, 0, false)
}

// TestDirectoryStaleSharerDetected: every sharer a home record names holds
// the line, because nodes send a replacement hint when they drop a clean
// line. A sharer bit for a node without the line means a hint was missed,
// and the invalidation sent to that node must trip
// "directory-stale-sharer".
func TestDirectoryStaleSharerDetected(t *testing.T) {
	s := MustNew(config.Default().WithDirectory(), testWorkload(t, "ocean", 4, 1_000, 1), 1)
	s.DebugChecks = true
	f := s.fabric.(*directoryFabric)
	line := addr.LineAddr(0x40000)
	home := s.topo.HomeController(addr.Addr(line))
	f.resolve(s.nodes[1], coherence.ReqIFetch, line, home, 0, false)
	f.dirs[home].Lookup(line).AddSharer(2) // p2 never fetched the line
	defer func() {
		ie, ok := recover().(*coherence.InvariantError)
		if !ok || ie.Check != "directory-stale-sharer" {
			t.Errorf("stale sharer not detected (violation %+v)", ie)
		}
	}()
	f.resolve(s.nodes[0], coherence.ReqReadExcl, line, home, 0, false)
}

// TestMSHRFile checks the node's in-flight fill registers: a duplicate
// issue keeps the line's one entry and its waiters, the first completion
// removes it, and a line re-opened while the removed entry's waiters are
// still being read gets a fresh entry.
func TestMSHRFile(t *testing.T) {
	f := newMSHRFile(2)
	a, b, c := addr.LineAddr(0x1000), addr.LineAddr(0x2000), addr.LineAddr(0x3000)
	f.open(a)
	f.open(b)
	ma := f.find(a)
	ma.waiters = append(ma.waiters, storeEntry{line: a})
	f.open(a)
	if len(f.lines) != 2 || f.find(a) != ma || len(ma.waiters) != 1 {
		t.Fatalf("duplicate open: %d entries, waiters %v", len(f.lines), f.find(a).waiters)
	}
	f.open(c) // past the preallocated size: still correct
	if m := f.take(a); m != ma {
		t.Fatal("take returned another entry")
	}
	if f.find(a) != nil || f.take(a) != nil {
		t.Error("a second completion found the removed entry")
	}
	if f.find(b) == nil || f.find(c) == nil {
		t.Error("swap-removal lost another line")
	}
	f.open(a)
	if f.find(a) == ma {
		t.Error("re-opened line reuses an entry still being read")
	}
	f.release(ma)
	f.take(b)
	f.open(b)
	if f.find(b) != ma || len(ma.waiters) != 0 {
		t.Error("released entry not recycled empty")
	}
}

// TestCompleteFillRetriesWaiters drives the MSHR file through the node:
// duplicate issues of one line share an entry until the first fill
// completes, and every store waiting on a completed fill is retried — the
// first retry re-issues for the line and opens a fresh entry, and the
// others wait on it.
func TestCompleteFillRetriesWaiters(t *testing.T) {
	s := MustNew(config.Default(), testWorkload(t, "ocean", 4, 1_000, 1), 1)
	n := s.nodes[0]
	line := addr.LineAddr(0x40000)
	n.outstandingDemand = 2
	s.fabric.issue(n, coherence.ReqRead, line, 0, false)
	s.fabric.issue(n, coherence.ReqRead, line, 0, false)
	if len(n.mshrs.lines) != 1 || n.outstanding != 2 {
		t.Fatalf("two issues: %d entries, %d outstanding", len(n.mshrs.lines), n.outstanding)
	}
	for s.queue.Step() {
	}
	if len(n.mshrs.lines) != 0 || n.outstanding != 0 || n.outstandingDemand != 0 {
		t.Fatalf("after both fills: %d entries, %d outstanding, %d demand",
			len(n.mshrs.lines), n.outstanding, n.outstandingDemand)
	}

	// Three stores wait on a read of a line that arrives Shared.
	other := s.nodes[1]
	other.l2.Allocate(line, coherence.Shared)
	n.l2.Invalidate(line)
	n.outstandingDemand = 1
	s.fabric.issue(n, coherence.ReqRead, line, 0, false)
	m := n.mshrs.find(line)
	for i := 0; i < 3; i++ {
		m.waiters = append(m.waiters, storeEntry{line: line, kind: workload.OpStore})
	}
	n.storeBufUsed = 3
	upgrades := s.run.Requests[coherence.ReqUpgrade]
	for s.queue.Step() {
	}
	if got := s.run.Requests[coherence.ReqUpgrade] - upgrades; got != 1 {
		t.Errorf("%d upgrades for three waiting stores, want 1", got)
	}
	if n.storeBufUsed != 0 || len(n.mshrs.lines) != 0 || n.outstanding != 0 {
		t.Errorf("stores not all retired: %d buffered, %d entries, %d outstanding",
			n.storeBufUsed, len(n.mshrs.lines), n.outstanding)
	}
	if st := n.l2.Lookup(line); st != coherence.Modified {
		t.Errorf("line ends %v after the stores, want M", st)
	}
}

// TestReadSharedAlternative reproduces the §3.1 design discussion: letting
// loads fetch shared copies directly in externally clean regions avoids
// more broadcasts up front but "can cause a large number of upgrades".
func TestReadSharedAlternative(t *testing.T) {
	cfg := config.Default().WithCGCT(512)
	base := MustNew(cfg, testWorkload(t, "tpc-b", 4, 25_000, 13), 13)
	baseRun := base.Run()

	cfg2 := config.Default().WithCGCT(512)
	cfg2.RCA.ReadSharedDirect = true
	alt := MustNew(cfg2, testWorkload(t, "tpc-b", 4, 25_000, 13), 13)
	alt.DebugChecks = true
	altRun := alt.Run()

	if altRun.Requests[coherence.ReqUpgrade] <= baseRun.Requests[coherence.ReqUpgrade] {
		t.Errorf("read-shared alternative did not inflate upgrades (%d vs %d)",
			altRun.Requests[coherence.ReqUpgrade], baseRun.Requests[coherence.ReqUpgrade])
	}
}

// TestSectoredL2 runs the related-work sectored cache through the full
// simulator (with CGCT and all invariants) and checks the §2 claim: the
// sectored configuration misses more, CGCT barely moves the miss ratio.
func TestSectoredL2(t *testing.T) {
	ops := 20_000
	if testing.Short() {
		ops = 6_000
	}
	base := MustNew(config.Default(), testWorkload(t, "specweb99", 4, ops, 17), 17).Run()

	cfgSec := config.Default()
	cfgSec.L2SectorBytes = 512
	s := MustNew(cfgSec, testWorkload(t, "specweb99", 4, ops, 17), 17)
	s.DebugChecks = true
	sec := s.Run()

	cfgBoth := config.Default().WithCGCT(512)
	cfgBoth.L2SectorBytes = 512
	s2 := MustNew(cfgBoth, testWorkload(t, "specweb99", 4, ops, 17), 17)
	s2.DebugChecks = true
	s2.Run() // invariants only: sectored L2 + RCA inclusion must coexist

	ratio := func(r *stats.Run) float64 {
		return float64(r.L2Misses) / float64(r.L2Hits+r.L2Misses)
	}
	if ratio(sec) <= ratio(base) {
		t.Errorf("sectoring did not raise the miss ratio (%.4f vs %.4f)", ratio(sec), ratio(base))
	}
}
