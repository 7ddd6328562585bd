package workload

import (
	"testing"

	"cgct/internal/addr"
)

func TestRegistryComplete(t *testing.T) {
	names := Names()
	want := []string{
		"ocean", "raytrace", "barnes", "specint2000rate",
		"specweb99", "specjbb2000", "tpc-w", "tpc-b", "tpc-h",
	}
	if len(names) < len(want) {
		t.Fatalf("registry has %d entries", len(names))
	}
	for i, w := range want {
		if names[i] != w {
			t.Errorf("Names()[%d] = %q, want %q (Table 4 order)", i, names[i], w)
		}
	}
	for _, n := range want {
		info, err := Lookup(n)
		if err != nil {
			t.Errorf("Lookup(%q): %v", n, err)
			continue
		}
		if info.Category == "" || info.Comment == "" {
			t.Errorf("%q missing metadata", n)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Build("nope", Params{Processors: 4}); err == nil {
		t.Error("Build accepted unknown benchmark")
	}
	if _, err := Build("ocean", Params{Processors: 0}); err == nil {
		t.Error("Build accepted zero processors")
	}
}

func TestBuildProducesRequestedGenerators(t *testing.T) {
	w := MustBuild("ocean", Params{Processors: 4, OpsPerProc: 1000, Seed: 1})
	if len(w.Generators) != 4 {
		t.Fatalf("generators = %d", len(w.Generators))
	}
}

func TestDeterminism(t *testing.T) {
	for _, name := range []string{"ocean", "tpc-h", "specweb99"} {
		a := MustBuild(name, Params{Processors: 2, OpsPerProc: 5000, Seed: 7})
		b := MustBuild(name, Params{Processors: 2, OpsPerProc: 5000, Seed: 7})
		for p := 0; p < 2; p++ {
			opsA := Collect(a.Generators[p], 6000)
			opsB := Collect(b.Generators[p], 6000)
			if len(opsA) != len(opsB) {
				t.Fatalf("%s p%d: lengths differ %d vs %d", name, p, len(opsA), len(opsB))
			}
			for i := range opsA {
				if opsA[i] != opsB[i] {
					t.Fatalf("%s p%d: op %d differs: %+v vs %+v", name, p, i, opsA[i], opsB[i])
				}
			}
		}
	}
}

func TestSeedsProduceDifferentTraces(t *testing.T) {
	a := MustBuild("tpc-b", Params{Processors: 1, OpsPerProc: 2000, Seed: 1})
	b := MustBuild("tpc-b", Params{Processors: 1, OpsPerProc: 2000, Seed: 2})
	opsA := Collect(a.Generators[0], 2000)
	opsB := Collect(b.Generators[0], 2000)
	same := 0
	for i := 0; i < len(opsA) && i < len(opsB); i++ {
		if opsA[i] == opsB[i] {
			same++
		}
	}
	if same > len(opsA)/2 {
		t.Errorf("different seeds share %d/%d identical ops", same, len(opsA))
	}
}

func TestTraceLengthApproximate(t *testing.T) {
	const want = 10_000
	for _, name := range Names() {
		w := MustBuild(name, Params{Processors: 4, OpsPerProc: want, Seed: 3})
		got := len(Collect(w.Generators[0], want*2))
		// Generators may overshoot by at most one activity burst.
		if got < want || got > want+4200 {
			t.Errorf("%s: trace length %d, want ~%d", name, got, want)
		}
	}
}

func TestTraceComposition(t *testing.T) {
	// Every benchmark must contain loads, stores and instruction fetches;
	// the page-zeroing web workloads must also contain DCBZ.
	for _, name := range Names() {
		w := MustBuild(name, Params{Processors: 4, OpsPerProc: 60_000, Seed: 1})
		var kinds [NOpKinds]int
		for _, op := range Collect(w.Generators[0], 60_000) {
			kinds[op.Kind]++
		}
		if kinds[OpLoad] == 0 || kinds[OpStore] == 0 || kinds[OpIFetch] == 0 {
			t.Errorf("%s: missing basic op kinds: %v", name, kinds)
		}
		switch name {
		case "specweb99", "specjbb2000":
			if kinds[OpDCBZ] == 0 {
				t.Errorf("%s: no DCBZ page zeroing", name)
			}
		}
	}
}

func TestAddressesAreCanonical(t *testing.T) {
	for _, name := range Names() {
		w := MustBuild(name, Params{Processors: 4, OpsPerProc: 20_000, Seed: 5})
		for _, op := range Collect(w.Generators[1], 20_000) {
			if uint64(op.Addr) > addr.PhysAddrMask {
				t.Fatalf("%s: address %x exceeds the physical address space", name, uint64(op.Addr))
			}
		}
	}
}

func TestPerProcessorSeparation(t *testing.T) {
	// Different processors of one workload must not replay the same trace.
	w := MustBuild("specint2000rate", Params{Processors: 2, OpsPerProc: 2000, Seed: 1})
	a := Collect(w.Generators[0], 2000)
	b := Collect(w.Generators[1], 2000)
	same := 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].Addr == b[i].Addr {
			same++
		}
	}
	if same > len(a)/4 {
		t.Errorf("processors share %d/%d identical addresses", same, len(a))
	}
}

func TestSliceGenerator(t *testing.T) {
	ops := []Op{{Kind: OpLoad, Addr: 64}, {Kind: OpStore, Addr: 128}}
	g := &SliceGenerator{Ops: ops}
	got := Collect(g, 10)
	if len(got) != 2 || got[0] != ops[0] || got[1] != ops[1] {
		t.Errorf("SliceGenerator replay = %+v", got)
	}
	if _, ok := g.Next(); ok {
		t.Error("exhausted generator returned ok")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	register(Info{Name: "ocean"})
}

func TestOpKindStrings(t *testing.T) {
	for k := OpKind(0); k < NOpKinds; k++ {
		if s := k.String(); len(s) == 0 || s[0] == 'O' && len(s) > 7 && s[:7] == "OpKind(" {
			t.Errorf("kind %d has default string %q", k, s)
		}
	}
}

func TestPaperNames(t *testing.T) {
	paper := PaperNames()
	if len(paper) != 9 {
		t.Fatalf("paper set has %d entries", len(paper))
	}
	all := Names()
	if len(all) <= len(paper) {
		t.Error("micro-workloads missing from the full registry")
	}
	// The paper set leads the full list.
	for i, n := range paper {
		if all[i] != n {
			t.Errorf("Names()[%d] = %q, want %q", i, all[i], n)
		}
	}
	// Micro-workloads build and run.
	for _, n := range []string{"micro-private", "micro-migratory", "micro-producer-consumer", "micro-falseshare"} {
		w := MustBuild(n, Params{Processors: 4, OpsPerProc: 2_000, Seed: 1})
		if len(Collect(w.Generators[0], 4_000)) == 0 {
			t.Errorf("%s produced no ops", n)
		}
	}
}

// TestCollectPrealloc: Collect sizes its slice from the max hint instead
// of doubling from nil — one allocation for typical trace lengths.
func TestCollectPrealloc(t *testing.T) {
	ops := make([]Op, 10_000)
	for i := range ops {
		ops[i] = Op{Kind: OpLoad, Addr: addr.Addr(i * 64)}
	}
	g := &SliceGenerator{Ops: ops}
	got := Collect(g, len(ops))
	if len(got) != len(ops) {
		t.Fatalf("collected %d ops, want %d", len(got), len(ops))
	}
	if cap(got) != len(ops) {
		t.Fatalf("cap = %d, want exactly the %d-op hint", cap(got), len(ops))
	}
	allocs := testing.AllocsPerRun(10, func() {
		g.pos = 0
		Collect(g, len(ops))
	})
	if allocs > 1 {
		t.Fatalf("Collect allocated %.0f times, want 1", allocs)
	}
	if Collect(g, 0) != nil || Collect(g, -1) != nil {
		t.Error("non-positive max must collect nothing")
	}
	// A wildly large hint must not allocate anywhere near the claim.
	g.pos = 0
	huge := Collect(g, 1<<40)
	if len(huge) != len(ops) || cap(huge) > collectChunkCap {
		t.Fatalf("huge-hint collect: len %d cap %d", len(huge), cap(huge))
	}
}

// TestGeneratorSourceAdapter: the Generator→Source adapter preserves the
// stream and reports exhaustion as 0.
func TestGeneratorSourceAdapter(t *testing.T) {
	ops := []Op{{Kind: OpLoad, Addr: 64}, {Kind: OpStore, Addr: 128}, {Kind: OpDCBZ, Addr: 192}}
	src := GeneratorSource{G: &SliceGenerator{Ops: ops}}
	var buf [2]Op
	if n := src.Fill(buf[:]); n != 2 || buf[0] != ops[0] || buf[1] != ops[1] {
		t.Fatalf("first fill = %d, %v", n, buf)
	}
	if n := src.Fill(buf[:]); n != 1 || buf[0] != ops[2] {
		t.Fatalf("second fill = %d, %v", n, buf)
	}
	if n := src.Fill(buf[:]); n != 0 {
		t.Fatalf("exhausted fill = %d", n)
	}
}

// TestWorkloadSources: Sources take precedence over Generators in Procs
// and Source.
func TestWorkloadSources(t *testing.T) {
	w := Workload{
		Generators: []Generator{&SliceGenerator{}},
		Sources: []Source{
			GeneratorSource{G: &SliceGenerator{Ops: []Op{{Kind: OpStore, Addr: 64}}}},
			GeneratorSource{G: &SliceGenerator{}},
		},
	}
	if w.Procs() != 2 {
		t.Fatalf("procs = %d, want 2 (sources win)", w.Procs())
	}
	var buf [1]Op
	if n := w.Source(0).Fill(buf[:]); n != 1 || buf[0].Kind != OpStore {
		t.Fatalf("source 0 fill = %d, %v", n, buf[0])
	}
	w.Sources = nil
	if w.Procs() != 1 {
		t.Fatalf("procs = %d, want 1 (generator fallback)", w.Procs())
	}
}
