package trace

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"cgct/internal/addr"
	"cgct/internal/workload"
)

// collectProc drains one processor's compiled stream through a cursor.
func collectProc(t *testing.T, pt *ProcTrace, batch int) []workload.Op {
	t.Helper()
	cur := pt.Cursor()
	var out []workload.Op
	buf := make([]workload.Op, batch)
	for {
		n := cur.Fill(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// TestCompileMatchesGenerators: the compiled columns must replay the exact
// op sequence the live generators produce — kind, address and gap.
func TestCompileMatchesGenerators(t *testing.T) {
	p := workload.Params{Processors: 4, OpsPerProc: 3_000, Seed: 11}
	tr, err := Compile(context.Background(), "tpc-b", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Procs) != p.Processors {
		t.Fatalf("procs = %d, want %d", len(tr.Procs), p.Processors)
	}
	live := workload.MustBuild("tpc-b", p)
	for i := range tr.Procs {
		want := workload.Collect(live.Generators[i], p.OpsPerProc*2)
		got := collectProc(t, &tr.Procs[i], 256)
		if len(got) != len(want) {
			t.Fatalf("p%d: %d ops, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("p%d[%d]: %+v != %+v", i, j, got[j], want[j])
			}
		}
	}
}

// TestEncoderRejectsUnpackableOps: an address above addr.PhysAddrMask or
// an unknown kind does not fit the packed word, so the encoder refuses it
// and Compile fails rather than replaying a truncated op.
func TestEncoderRejectsUnpackableOps(t *testing.T) {
	var pt ProcTrace
	if err := pt.add(workload.Op{Addr: addr.Addr(addr.PhysAddrMask)}); err != nil {
		t.Fatalf("highest physical address rejected: %v", err)
	}
	for _, op := range []workload.Op{
		{Addr: addr.Addr(addr.PhysAddrMask + 1)},
		{Addr: addr.Addr(1) << 63},
		{Kind: workload.NOpKinds},
	} {
		if err := pt.add(op); err == nil {
			t.Errorf("add(%+v) accepted", op)
		}
	}
	if pt.Len() != 1 {
		t.Fatalf("rejected ops were stored: %d ops", pt.Len())
	}
	bad := workload.Workload{Name: "bad", Generators: []workload.Generator{&workload.SliceGenerator{
		Ops: []workload.Op{{Addr: 64}, {Addr: addr.Addr(addr.PhysAddrMask + 1)}},
	}}}
	_, err := FromWorkload(context.Background(), bad, 0)
	if err == nil || !strings.Contains(err.Error(), "p0[1]") || !strings.Contains(err.Error(), "physical address space") {
		t.Fatalf("err = %v, want an out-of-range address at p0[1]", err)
	}
}

// TestCompiledOpIsOneWord: every paper benchmark's compiled trace costs
// exactly one 8-byte word per op — no generator reaches the gap escape.
func TestCompiledOpIsOneWord(t *testing.T) {
	for _, b := range workload.PaperNames() {
		tr, err := Compile(context.Background(), b, workload.Params{Processors: 2, OpsPerProc: 5_000, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for p := range tr.Procs {
			if pt := &tr.Procs[p]; pt.Bytes() != 8*int64(pt.Len()) {
				t.Errorf("%s p%d: %d bytes for %d ops", b, p, pt.Bytes(), pt.Len())
			}
		}
	}
}

// TestCursorFillSizes: the decoded stream is independent of the caller's
// batch size, including a 1-op buffer.
func TestCursorFillSizes(t *testing.T) {
	tr, err := Compile(context.Background(), "ocean", workload.Params{Processors: 2, OpsPerProc: 1_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref := collectProc(t, &tr.Procs[0], 1024)
	for _, batch := range []int{1, 7, 1024} {
		if got := collectProc(t, &tr.Procs[0], batch); !reflect.DeepEqual(got, ref) {
			t.Fatalf("batch %d decoded a different stream", batch)
		}
	}
}

// TestCursorFillDoesNotAllocate gates the replay hot path: decoding into
// a caller-owned buffer allocates nothing.
func TestCursorFillDoesNotAllocate(t *testing.T) {
	tr, err := Compile(context.Background(), "ocean", workload.Params{Processors: 1, OpsPerProc: 20_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Procs[0].Cursor()
	var buf [128]workload.Op
	short := 0
	if n := testing.AllocsPerRun(100, func() {
		if c.Fill(buf[:]) != len(buf) {
			short++
		}
	}); n != 0 {
		t.Errorf("Cursor.Fill allocates %v times per %d ops", n, len(buf))
	}
	if short != 0 {
		t.Fatalf("trace ran out after %d ops", tr.Procs[0].Len())
	}
}

// BenchmarkCursorFill measures decoding one 128-op batch, the size the
// simulator refills, rewinding at the end of the trace.
func BenchmarkCursorFill(b *testing.B) {
	tr, err := Compile(context.Background(), "ocean", workload.Params{Processors: 1, OpsPerProc: 100_000, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	pt := &tr.Procs[0]
	c := Cursor{t: pt}
	var buf [128]workload.Op
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Fill(buf[:]) < len(buf) {
			c = Cursor{t: pt}
		}
	}
}

// TestContentHashDeterministic: identical params hash identically; a
// different seed produces different content and a different hash.
func TestContentHashDeterministic(t *testing.T) {
	p := workload.Params{Processors: 2, OpsPerProc: 500, Seed: 5}
	a, err := Compile(context.Background(), "barnes", p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(context.Background(), "barnes", p)
	if err != nil {
		t.Fatal(err)
	}
	if a.ContentHash() == "" || a.ContentHash() != b.ContentHash() {
		t.Fatalf("hashes differ for identical content: %q vs %q", a.ContentHash(), b.ContentHash())
	}
	p.Seed = 6
	c, err := Compile(context.Background(), "barnes", p)
	if err != nil {
		t.Fatal(err)
	}
	if c.ContentHash() == a.ContentHash() {
		t.Fatal("different seeds produced the same content hash")
	}
}

// TestWorkloadWrapping: Workload() exposes the right stream count and
// metadata, and hands out fresh cursors on every call.
func TestWorkloadWrapping(t *testing.T) {
	tr, err := Compile(context.Background(), "tpc-w", workload.Params{Processors: 4, OpsPerProc: 800, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := tr.Workload()
	if w.Procs() != 4 || w.Name != "tpc-w" {
		t.Fatalf("workload = %q with %d procs", w.Name, w.Procs())
	}
	if len(w.DMATargets) == 0 {
		t.Fatal("tpc-w DMA targets lost in compilation")
	}
	var buf [16]workload.Op
	first := w.Source(0)
	if n := first.Fill(buf[:]); n != 16 {
		t.Fatalf("first fill = %d", n)
	}
	// A second Workload must start from the beginning, not where the
	// first one's cursor stopped.
	var buf2 [16]workload.Op
	if n := tr.Workload().Source(0).Fill(buf2[:]); n != 16 || buf2 != buf {
		t.Fatal("second Workload did not replay from the start")
	}
	// OpsPerProc is a hint, not an exact count (generators interleave
	// ifetches), but every stream must at least reach it.
	if tr.Ops() < 4*800 || tr.Bytes() <= 0 {
		t.Fatalf("ops = %d, bytes = %d", tr.Ops(), tr.Bytes())
	}
}

// TestCompileCancellation: a cancelled context aborts compilation.
func TestCompileCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Compile(ctx, "ocean", workload.Params{Processors: 4, OpsPerProc: 400_000, Seed: 1}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCompileUnknownBenchmark propagates workload registry errors.
func TestCompileUnknownBenchmark(t *testing.T) {
	if _, err := Compile(context.Background(), "nope", workload.Params{Processors: 1}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
