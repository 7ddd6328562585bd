package sim

import (
	"context"
	"testing"

	"cgct/internal/addr"
	"cgct/internal/coherence"
	"cgct/internal/config"
	"cgct/internal/core"
)

// TestSnoopScanCheckDetectsDisagreement verifies the snoop-scan validator:
// when a bank scan and the nodes' own structures disagree it must trip
// "snoop-scan" (so the DebugChecks runs that pass actually prove
// something). Swapping two nodes' views of a bank plants the disagreement
// a wrong stride or offset would cause: the scan attributes a way to the
// node whose slot it sits in, the node's own probes read the other slot.
// The NSRT case plants an entry behind the holder record's back.
func TestSnoopScanCheckDetectsDisagreement(t *testing.T) {
	region := addr.RegionAddr(0x40000)
	broadcast := func(s *System) {
		line := s.geom.LineInRegion(region, 3)
		s.fabric.(*snoopFabric).performBroadcast(s.nodes[0], coherence.ReqRead, line, region, 0, false)
	}
	for _, tc := range []struct {
		name  string
		cfg   config.Config
		plant func(s *System)
		scan  func(s *System)
	}{
		{"l2", config.Default(), func(s *System) {
			s.nodes[1].l2.Allocate(s.geom.LineInRegion(region, 3), coherence.Shared)
			s.nodes[1].l2, s.nodes[2].l2 = s.nodes[2].l2, s.nodes[1].l2
		}, broadcast},
		{"rca", config.Default().WithCGCT(512), func(s *System) {
			s.nodes[1].rca.Allocate(region, core.RegionCI)
			s.nodes[1].rca, s.nodes[2].rca = s.nodes[2].rca, s.nodes[1].rca
		}, broadcast},
		{"region-probe", config.Default().WithCGCT(512), func(s *System) {
			s.nodes[1].rca.Allocate(region, core.RegionCI)
			s.nodes[1].rca, s.nodes[2].rca = s.nodes[2].rca, s.nodes[1].rca
		}, func(s *System) { s.observeRemoteRegion(0, region, nil) }},
		{"crh", config.Default().WithRegionScout(512), func(s *System) {
			s.nodes[1].l2.Allocate(s.geom.LineInRegion(region, 3), coherence.Shared)
			s.nodes[1].crh, s.nodes[2].crh = s.nodes[2].crh, s.nodes[1].crh
		}, broadcast},
		{"nsrt", config.Default().WithRegionScout(512), func(s *System) {
			s.nodes[2].nsrt.Insert(region)
		}, broadcast},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := MustNew(tc.cfg, testWorkload(t, "ocean", 4, 1_000, 1), 1)
			s.DebugChecks = true
			tc.plant(s)
			defer func() {
				ie, ok := recover().(*coherence.InvariantError)
				if !ok || ie.Check != "snoop-scan" {
					t.Errorf("disagreement not detected (violation %+v)", ie)
				}
			}()
			tc.scan(s)
		})
	}
}

// TestManyProcessorDebugChecks runs 72-processor machines, whose node
// indices pass one 64-bit word, with every coherence check armed and the
// snoop-scan validator comparing each scan with a probe of every node:
// the snooping baseline, CGCT and RegionScout, and directory+CGCT, whose
// home transactions walk sharer bits in both mask words.
func TestManyProcessorDebugChecks(t *testing.T) {
	const procs = 72
	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{
		{"baseline", config.Default()},
		{"cgct", config.Default().WithCGCT(512)},
		{"scout", config.Default().WithRegionScout(512)},
		{"directory+cgct", config.Default().WithDirectory().WithCGCT(512)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Topology.Processors = procs
			s := MustNew(cfg, testWorkload(t, "tpc-b", procs, 300, 3), 3)
			s.DebugChecks = true
			run, err := s.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if run.TotalRequests() == 0 {
				t.Fatal("the run issued no fabric requests")
			}
			// Every broadcast but a write-back's snoops each remote node
			// once, through its filter or its tags.
			snooped := run.TotalBroadcasts() - run.Broadcasts[coherence.ReqWriteback]
			if !cfg.Directory && run.SnoopTagLookups+run.SnoopTagFiltered != (procs-1)*snooped {
				t.Errorf("%d snoop tag lookups + %d filtered, want %d remote nodes × %d snooped broadcasts",
					run.SnoopTagLookups, run.SnoopTagFiltered, procs-1, snooped)
			}
		})
	}
}
