package topology

import (
	"testing"

	"cgct/internal/addr"
	"cgct/internal/config"
)

func paper() *Topology {
	return MustNew(config.Default().Topology)
}

func TestPaperTopology(t *testing.T) {
	tp := paper()
	if tp.Processors() != 4 {
		t.Errorf("processors = %d", tp.Processors())
	}
	if tp.MemControllers() != 2 {
		t.Errorf("controllers = %d, want 2 (one per chip)", tp.MemControllers())
	}
	// Cores 0,1 on chip 0; cores 2,3 on chip 1.
	if tp.ChipOf(0) != 0 || tp.ChipOf(1) != 0 || tp.ChipOf(2) != 1 || tp.ChipOf(3) != 1 {
		t.Error("chip mapping wrong")
	}
}

func TestProcToMemDistances(t *testing.T) {
	tp := paper()
	// Processor 0 to its own chip's controller: same chip.
	if d := tp.ProcToMem(0, 0); d != config.DistSameChip {
		t.Errorf("p0->mc0 = %v", d)
	}
	// Processor 0 to the other chip's controller: both chips hang off one
	// data switch in the 4-processor configuration.
	if d := tp.ProcToMem(0, 1); d != config.DistSameSwitch {
		t.Errorf("p0->mc1 = %v", d)
	}
}

func TestProcToProcDistances(t *testing.T) {
	tp := paper()
	if d := tp.ProcToProc(0, 1); d != config.DistSameChip {
		t.Errorf("p0->p1 = %v", d)
	}
	if d := tp.ProcToProc(0, 2); d != config.DistSameSwitch {
		t.Errorf("p0->p2 = %v", d)
	}
}

func TestLargerSystemDistances(t *testing.T) {
	// 16 processors: 8 chips, 4 switches, 2 boards.
	tp := MustNew(config.TopologyParams{
		Processors: 16, CoresPerChip: 2, ChipsPerSwitch: 2, SwitchesPerBoard: 2,
	})
	if tp.MemControllers() != 8 {
		t.Fatalf("controllers = %d", tp.MemControllers())
	}
	if d := tp.ProcToMem(0, 0); d != config.DistSameChip {
		t.Errorf("own chip = %v", d)
	}
	if d := tp.ProcToMem(0, 1); d != config.DistSameSwitch {
		t.Errorf("same switch = %v", d)
	}
	if d := tp.ProcToMem(0, 2); d != config.DistSameBoard {
		t.Errorf("same board = %v", d)
	}
	if d := tp.ProcToMem(0, 4); d != config.DistRemote {
		t.Errorf("remote = %v", d)
	}
}

func TestHomeControllerInterleave(t *testing.T) {
	tp := paper()
	// Pages interleave across the two controllers.
	if tp.HomeController(0) != 0 {
		t.Error("page 0 should home to controller 0")
	}
	if tp.HomeController(4096) != 1 {
		t.Error("page 1 should home to controller 1")
	}
	if tp.HomeController(8192) != 0 {
		t.Error("page 2 should home to controller 0")
	}
	// Within one page the home never changes.
	h := tp.HomeController(0x10000)
	for off := uint64(0); off < 4096; off += 64 {
		if tp.HomeController(addr.Addr(0x10000+off)) != h {
			t.Fatal("home changed within a page")
		}
	}
}

func TestRegionNeverSpansControllers(t *testing.T) {
	tp := paper()
	g := addr.MustGeometry(64, 1024)
	for base := uint64(0); base < 1<<16; base += 1024 {
		r := addr.RegionAddr(base)
		h := tp.HomeControllerRegion(r)
		for i := 0; i < g.LinesPerRegion(); i++ {
			if tp.HomeController(addr.Addr(g.LineInRegion(r, i))) != h {
				t.Fatalf("region %x spans controllers", base)
			}
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(config.TopologyParams{Processors: 0, CoresPerChip: 1, ChipsPerSwitch: 1, SwitchesPerBoard: 1}); err == nil {
		t.Error("zero processors accepted")
	}
	if _, err := New(config.TopologyParams{Processors: 4, CoresPerChip: 0, ChipsPerSwitch: 1, SwitchesPerBoard: 1}); err == nil {
		t.Error("zero cores per chip accepted")
	}
}

// TestDistanceTableMatchesHierarchy: the distances New works out once are
// the ones the chip, switch and board hierarchy gives, for every
// processor and controller pair of several machines, the largest 128
// single-core chips.
func TestDistanceTableMatchesHierarchy(t *testing.T) {
	for _, p := range []config.TopologyParams{
		config.Default().Topology,
		{Processors: 16, CoresPerChip: 2, ChipsPerSwitch: 2, SwitchesPerBoard: 2},
		{Processors: 72, CoresPerChip: 2, ChipsPerSwitch: 2, SwitchesPerBoard: 2},
		{Processors: 7, CoresPerChip: 3, ChipsPerSwitch: 1, SwitchesPerBoard: 2},
		{Processors: 128, CoresPerChip: 1, ChipsPerSwitch: 4, SwitchesPerBoard: 4},
	} {
		tp := MustNew(p)
		dist := func(a, b int) config.Distance {
			switch {
			case a == b:
				return config.DistSameChip
			case a/p.ChipsPerSwitch == b/p.ChipsPerSwitch:
				return config.DistSameSwitch
			case a/p.ChipsPerSwitch/p.SwitchesPerBoard == b/p.ChipsPerSwitch/p.SwitchesPerBoard:
				return config.DistSameBoard
			default:
				return config.DistRemote
			}
		}
		for a := 0; a < p.Processors; a++ {
			ca := a / p.CoresPerChip
			if tp.ChipOf(a) != ca {
				t.Fatalf("%+v: ChipOf(%d) = %d, want %d", p, a, tp.ChipOf(a), ca)
			}
			for m := 0; m < tp.MemControllers(); m++ {
				if got, want := tp.ProcToMem(a, m), dist(ca, m); got != want {
					t.Fatalf("%+v: ProcToMem(%d, %d) = %v, want %v", p, a, m, got, want)
				}
			}
			for b := 0; b < p.Processors; b++ {
				if got, want := tp.ProcToProc(a, b), dist(ca, b/p.CoresPerChip); got != want {
					t.Fatalf("%+v: ProcToProc(%d, %d) = %v, want %v", p, a, b, got, want)
				}
			}
		}
	}
}
