package config

import (
	"strings"
	"testing"
)

// TestTable3Defaults pins the default configuration to the paper's Table 3.
func TestTable3Defaults(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.Topology.Processors != 4 || c.Topology.CoresPerChip != 2 || c.Topology.ChipsPerSwitch != 2 {
		t.Errorf("topology = %+v", c.Topology)
	}
	if c.Proc.CommitWidth != 4 {
		t.Errorf("commit width = %d, want 4 (Table 3 decode/issue/commit 4/4/4)", c.Proc.CommitWidth)
	}
	// Caches: 32KB 4-way L1I, 64KB 4-way L1D, 1MB 2-way L2, 64B lines.
	if c.L1I.SizeBytes != 32<<10 || c.L1I.Assoc != 4 || c.L1I.LineBytes != 64 || c.L1I.LatencyCy != 1 {
		t.Errorf("L1I = %+v", c.L1I)
	}
	if c.L1D.SizeBytes != 64<<10 || c.L1D.Assoc != 4 || c.L1D.LatencyCy != 1 {
		t.Errorf("L1D = %+v", c.L1D)
	}
	if c.L2.SizeBytes != 1<<20 || c.L2.Assoc != 2 || c.L2.LatencyCy != 12 {
		t.Errorf("L2 = %+v", c.L2)
	}
	if c.L2.Sets() != 8192 {
		t.Errorf("L2 sets = %d, want 8192", c.L2.Sets())
	}
	// RCA: 8192 sets, 2-way (16K entries), 512B default region.
	if c.RCA.Sets != 8192 || c.RCA.Assoc != 2 || c.RCA.RegionBytes != 512 {
		t.Errorf("RCA = %+v", c.RCA)
	}
	if c.RCA.Entries() != 16384 {
		t.Errorf("RCA entries = %d", c.RCA.Entries())
	}
	// Interconnect latencies (CPU cycles; 10 CPU cycles per system cycle).
	if c.Net.SnoopLatency != 160 {
		t.Errorf("snoop latency = %d, want 160 (16 system cycles / 106ns)", c.Net.SnoopLatency)
	}
	if c.Net.DRAMLatency != 160 || c.Net.DRAMOverlapExtra != 70 {
		t.Errorf("DRAM latencies = %d/%d", c.Net.DRAMLatency, c.Net.DRAMOverlapExtra)
	}
	if c.Net.TransferSameSwitch != 30 || c.Net.TransferSameBoard != 70 || c.Net.TransferRemote != 120 {
		t.Errorf("transfer latencies = %d/%d/%d", c.Net.TransferSameSwitch, c.Net.TransferSameBoard, c.Net.TransferRemote)
	}
	if c.Net.DirectReqSameChip != 1 || c.Net.DirectReqSameSwitch != 20 ||
		c.Net.DirectReqSameBoard != 40 || c.Net.DirectReqRemote != 60 {
		t.Errorf("direct-request latencies wrong: %+v", c.Net)
	}
	if c.Net.DataBusBytesPerSysCycle != 16 {
		t.Errorf("data bandwidth = %d B/syscycle, want 16 (2.4 GB/s)", c.Net.DataBusBytesPerSysCycle)
	}
	if c.CGCTEnabled {
		t.Error("default must be the baseline")
	}
}

func TestSysCycles(t *testing.T) {
	if SysCycles(16) != 160 {
		t.Errorf("SysCycles(16) = %d", SysCycles(16))
	}
}

func TestDistanceString(t *testing.T) {
	names := map[Distance]string{
		DistSameChip: "same-chip", DistSameSwitch: "same-switch",
		DistSameBoard: "same-board", DistRemote: "remote",
	}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("%d.String() = %q", d, d.String())
		}
	}
}

func TestTransferAndDirectLatencies(t *testing.T) {
	n := Default().Net
	if n.TransferLatency(DistSameChip) != n.TransferLatency(DistSameSwitch) {
		t.Error("same-chip transfers should match same-switch (no closer hop in Table 3)")
	}
	if n.TransferLatency(DistRemote) <= n.TransferLatency(DistSameBoard) {
		t.Error("transfer latency must grow with distance")
	}
	if !(n.DirectRequestLatency(DistSameChip) < n.DirectRequestLatency(DistSameSwitch) &&
		n.DirectRequestLatency(DistSameSwitch) < n.DirectRequestLatency(DistSameBoard) &&
		n.DirectRequestLatency(DistSameBoard) < n.DirectRequestLatency(DistRemote)) {
		t.Error("direct-request latency must grow with distance")
	}
}

func TestWithCGCT(t *testing.T) {
	c := Default().WithCGCT(1024)
	if !c.CGCTEnabled || c.RCA.RegionBytes != 1024 {
		t.Errorf("WithCGCT = %+v", c.RCA)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("CGCT config invalid: %v", err)
	}
	h := c.WithRCASets(4096)
	if h.RCA.Sets != 4096 {
		t.Errorf("WithRCASets = %d", h.RCA.Sets)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Topology.Processors = 0 },
		func(c *Config) { c.Topology.CoresPerChip = 0 },
		func(c *Config) { c.L1I.LineBytes = 48 },
		func(c *Config) { c.L2.Assoc = 0 },
		func(c *Config) { c.L1D.LineBytes = 128 }, // mismatched line sizes
		func(c *Config) { c.CGCTEnabled = true; c.RCA.RegionBytes = 48 },
		func(c *Config) { c.CGCTEnabled = true; c.RCA.Sets = 1000 },
		func(c *Config) { c.Proc.CommitWidth = 0 },
		func(c *Config) { c.Proc.DemandOverlap = 0 },
		func(c *Config) { c.Net.MemCtrlBanks = 0 },
		func(c *Config) { *c = c.WithDirectory(); c.Proc.RegionPrefetch = true },
		func(c *Config) { *c = c.WithRegionScout(512).WithDirectory() },
		func(c *Config) {
			*c = c.WithDirectory()
			c.Topology.Processors = MaxDirectoryProcessors + 1
		},
	}
	for i, mutate := range cases {
		c := Default()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestRegionBoundedByHomeInterleave: under CGCT and under RegionScout a
// region may be as large as the home interleave, one page, and no larger,
// so it never spans home controllers.
func TestRegionBoundedByHomeInterleave(t *testing.T) {
	for name, with := range map[string]func(Config, uint64) Config{
		"CGCT":        Config.WithCGCT,
		"RegionScout": Config.WithRegionScout,
	} {
		if err := with(Default(), 4096).Validate(); err != nil {
			t.Errorf("%s with 4096-byte regions rejected: %v", name, err)
		}
		if err := with(Default(), 8192).Validate(); err == nil || !strings.Contains(err.Error(), "4096-byte home interleave") {
			t.Errorf("%s with 8192-byte regions: err = %v, want a rejection naming the 4096-byte home interleave", name, err)
		}
	}
}

// TestBatchHorizon pins the node run-ahead horizon to the minimum
// cross-node latency of each fabric (Table 3 values).
func TestBatchHorizon(t *testing.T) {
	if got, want := Default().BatchHorizon(), SysCycles(16); got != want {
		t.Errorf("snoop horizon = %d, want the snoop latency %d", got, want)
	}
	dir := Default().WithDirectory()
	if got, want := dir.BatchHorizon(), uint64(21); got != want {
		t.Errorf("directory horizon = %d, want same-chip request + directory lookup %d", got, want)
	}
	// A bus slower than a direct request plus DRAM leaves the direct floor.
	slowBus := Default()
	slowBus.Net.SnoopLatency = 10_000
	if got, want := slowBus.BatchHorizon(), slowBus.Net.DirectReqSameChip+slowBus.Net.DRAMLatency; got != want {
		t.Errorf("slow-bus horizon = %d, want the direct floor %d", got, want)
	}
}

// TestFabricDefaults pins the fabric selection: the default is the
// snooping bus, and the directory fabric validates on its own and
// composes with CGCT.
func TestFabricDefaults(t *testing.T) {
	if Default().Directory {
		t.Error("the default fabric must be the snooping bus")
	}
	if err := Default().WithDirectory().Validate(); err != nil {
		t.Errorf("directory fabric invalid: %v", err)
	}
	if err := Default().WithCGCT(512).WithDirectory().Validate(); err != nil {
		t.Errorf("CGCT on the directory fabric must be allowed: %v", err)
	}
}

func TestGeometryDefault(t *testing.T) {
	c := Default()
	c.RCA.RegionBytes = 0
	g, err := c.Geometry()
	if err != nil {
		t.Fatal(err)
	}
	if g.RegionBytes != 512 {
		t.Errorf("default stats region = %d, want 512", g.RegionBytes)
	}
}

func TestChips(t *testing.T) {
	tp := TopologyParams{Processors: 4, CoresPerChip: 2, ChipsPerSwitch: 2, SwitchesPerBoard: 2}
	if tp.Chips() != 2 {
		t.Errorf("Chips = %d", tp.Chips())
	}
	tp.Processors = 5
	if tp.Chips() != 3 {
		t.Errorf("Chips(5 procs) = %d", tp.Chips())
	}
}
