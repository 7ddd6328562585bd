package trace

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
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

// TestCompileMatchesGenerators: for every registered workload, the
// compiled columns must replay the exact op sequence — kind, address and
// gap — each processor's live generator produces when drained alone.
// Eight processors keep several concurrent drains overlapping even at
// GOMAXPROCS 2, so under -race this also checks that no two of a
// workload's streams share mutable state.
func TestCompileMatchesGenerators(t *testing.T) {
	p := workload.Params{Processors: 8, OpsPerProc: 3_000, Seed: 11}
	for _, name := range workload.Names() {
		tr, err := Compile(context.Background(), name, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Procs) != p.Processors {
			t.Fatalf("%s: procs = %d, want %d", name, len(tr.Procs), p.Processors)
		}
		live := workload.MustBuild(name, p)
		for i := range tr.Procs {
			g := live.Generators[i]
			want := workload.Collect(g, p.OpsPerProc*2)
			if _, more := g.Next(); more {
				t.Fatalf("%s p%d: live stream longer than %d ops", name, i, len(want))
			}
			got := collectProc(t, &tr.Procs[i], 256)
			if len(got) != len(want) {
				t.Fatalf("%s p%d: %d ops, want %d", name, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s p%d[%d]: %+v != %+v", name, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestEncoderRejectsUnpackableOps: an address above addr.PhysAddrMask or
// an unknown kind fits no word, so the encoder refuses it and Compile
// fails rather than replaying a truncated op.
func TestEncoderRejectsUnpackableOps(t *testing.T) {
	var e encoder
	if err := e.add(workload.Op{Addr: addr.Addr(addr.PhysAddrMask)}); err != nil {
		t.Fatalf("highest physical address rejected: %v", err)
	}
	for _, op := range []workload.Op{
		{Addr: addr.Addr(addr.PhysAddrMask + 1)},
		{Addr: addr.Addr(1) << 63},
		{Kind: workload.NOpKinds},
	} {
		if err := e.add(op); err == nil {
			t.Errorf("add(%+v) accepted", op)
		}
	}
	if e.pt.Len() != 1 {
		t.Fatalf("rejected ops were stored: %d ops", e.pt.Len())
	}
	bad := workload.Workload{Name: "bad", Generators: []workload.Generator{&workload.SliceGenerator{
		Ops: []workload.Op{{Addr: 64}, {Addr: addr.Addr(addr.PhysAddrMask + 1)}},
	}}}
	_, err := FromWorkload(context.Background(), bad, 0)
	if err == nil || !strings.Contains(err.Error(), "p0[1]") || !strings.Contains(err.Error(), "physical address space") {
		t.Fatalf("err = %v, want an out-of-range address at p0[1]", err)
	}
}

// TestCompiledTraceDensity gates the slab's size. Every paper benchmark
// compiles to at most 4.5 bytes per op at 4 and 16 processors, because
// at most one op in twenty takes the 8-byte escape. Every registered
// workload stays under 6: the producer-consumer and false-sharing
// micro-benchmarks escape up to one op in nine.
func TestCompiledTraceDensity(t *testing.T) {
	paper := map[string]bool{}
	for _, b := range workload.PaperNames() {
		paper[b] = true
	}
	for _, procs := range []int{4, 16} {
		for _, b := range workload.Names() {
			tr, err := Compile(context.Background(), b, workload.Params{Processors: procs, OpsPerProc: 20_000, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			perOp := float64(tr.Bytes()) / float64(tr.Ops())
			if paper[b] && perOp > 4.5 || perOp >= 6 {
				t.Errorf("%s at %d processors: %.2f bytes per op", b, procs, perOp)
			}
		}
	}
}

// TestCursorFillSizes: the decoded stream is independent of the caller's
// batch size, including a 1-op buffer and the simulator's 128, for a
// generated trace and for a hand-built one whose escapes straddle batch
// boundaries.
func TestCursorFillSizes(t *testing.T) {
	tr, err := Compile(context.Background(), "ocean", workload.Params{Processors: 2, OpsPerProc: 1_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// A data stream of small steps interleaved with an instruction stream
	// 1 GiB away. It escapes by gap at op 127, the last of the first
	// 128-op batch, by address at op 128 (and 129, jumping back), and by
	// both at op 255, the last of the second batch (and 256).
	edge := make([]workload.Op, 300)
	for i := range edge {
		edge[i] = workload.Op{Kind: workload.OpLoad, Addr: addr.Addr(1<<30 + 8*i), Gap: 2}
		if i%5 == 0 {
			edge[i] = workload.Op{Kind: workload.OpIFetch, Addr: addr.Addr(1<<12 + 4*i)}
		}
	}
	edge[127].Gap = gapMarker
	edge[128].Addr = addr.Addr(addr.PhysAddrMask &^ 7)
	edge[255] = workload.Op{Kind: workload.OpStore, Addr: 8, Gap: 1 << 30}
	built, err := FromWorkload(context.Background(), workload.Workload{
		Name:       "edge",
		Generators: []workload.Generator{&workload.SliceGenerator{Ops: edge}},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Op 1, the first data op, escapes too: it lies 1 GiB from address 0.
	var escaped []int
	for i, w := range built.Procs[0].ops {
		if w>>kindBits&gapMarker == gapMarker {
			escaped = append(escaped, i)
		}
	}
	if want := []int{1, 127, 128, 129, 255, 256}; !reflect.DeepEqual(escaped, want) {
		t.Fatalf("edge stream escapes ops %v, want %v", escaped, want)
	}
	for _, c := range []struct {
		name string
		pt   *ProcTrace
		want []workload.Op
	}{
		{"ocean", &tr.Procs[0], collectProc(t, &tr.Procs[0], 1024)},
		{"escapes on batch boundaries", &built.Procs[0], edge},
	} {
		for _, batch := range []int{1, 7, 128, 1024} {
			if got := collectProc(t, c.pt, batch); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("%s: batch %d decoded a different stream", c.name, batch)
			}
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
// simulator refills, rewinding at the end of the trace, and reports the
// cost per decoded op.
func BenchmarkCursorFill(b *testing.B) {
	tr, err := Compile(context.Background(), "ocean", workload.Params{Processors: 1, OpsPerProc: 100_000, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	pt := &tr.Procs[0]
	c := Cursor{t: pt}
	var buf [128]workload.Op
	decoded := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := c.Fill(buf[:])
		decoded += n
		if n < len(buf) {
			c = Cursor{t: pt}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(decoded), "ns/op-decoded")
}

// BenchmarkCompile measures compiling tpc-w at 4 processors × 60K ops —
// generation, packing and the concurrent drain — and reports the cost
// per compiled op.
func BenchmarkCompile(b *testing.B) {
	p := workload.Params{Processors: 4, OpsPerProc: 60_000, Seed: 7}
	var ops int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := Compile(context.Background(), "tpc-w", p)
		if err != nil {
			b.Fatal(err)
		}
		ops += tr.Ops()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/trace-op")
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

// TestCompileReportsLowestFailingProcessor: when several processors'
// streams fail, the error names the lowest-indexed one whatever order the
// concurrent drains finish in — here p3 fails on its first op, long
// before p1 reaches its bad one.
func TestCompileReportsLowestFailingProcessor(t *testing.T) {
	bad := workload.Op{Addr: addr.Addr(addr.PhysAddrMask + 1)}
	long := make([]workload.Op, 20_000)
	for i := range long {
		long[i] = workload.Op{Addr: addr.Addr(64 * i)}
	}
	build := func() workload.Workload {
		gens := make([]workload.Generator, 4)
		for i := range gens {
			gens[i] = &workload.SliceGenerator{Ops: long}
		}
		gens[1] = &workload.SliceGenerator{Ops: append(long[:len(long):len(long)], bad)}
		gens[3] = &workload.SliceGenerator{Ops: []workload.Op{bad}}
		return workload.Workload{Name: "bad", Generators: gens}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 20; rep++ {
			_, err := FromWorkload(context.Background(), build(), 0)
			if err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("trace: p1[%d]:", len(long))) {
				t.Fatalf("GOMAXPROCS %d, repeat %d: err = %v, want p1's error", procs, rep, err)
			}
		}
	}
}

// TestCompileProgressCountsEveryOp: the progress callback, called from
// the concurrent drains, is told about every op exactly once.
func TestCompileProgressCountsEveryOp(t *testing.T) {
	var total atomic.Int64
	ctx := WithProgress(context.Background(), func(ops int) { total.Add(int64(ops)) })
	tr, err := Compile(ctx, "tpc-w", workload.Params{Processors: 8, OpsPerProc: 5_000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := total.Load(); got != tr.Ops() {
		t.Fatalf("progress reported %d ops, trace holds %d", got, tr.Ops())
	}
}

// TestCompileUnknownBenchmark propagates workload registry errors.
func TestCompileUnknownBenchmark(t *testing.T) {
	if _, err := Compile(context.Background(), "nope", workload.Params{Processors: 1}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
