package trace

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"cgct/internal/addr"
	"cgct/internal/workload"
)

func compileSmall(t testing.TB) *Trace {
	t.Helper()
	tr, err := Compile(context.Background(), "tpc-b", workload.Params{Processors: 4, OpsPerProc: 2_000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFileRoundTrip(t *testing.T) {
	tr := compileSmall(t)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || !reflect.DeepEqual(got.DMATargets, tr.DMATargets) {
		t.Fatalf("metadata: %q %v, want %q %v", got.Name, got.DMATargets, tr.Name, tr.DMATargets)
	}
	if !reflect.DeepEqual(got.Procs, tr.Procs) {
		t.Fatal("columns did not round-trip")
	}
	if got.ContentHash() != tr.ContentHash() {
		t.Fatalf("hash %q != %q after round-trip", got.ContentHash(), tr.ContentHash())
	}
}

// TestFileRoundTripStreamed: the reader works without a known input size
// (no Len/Seek), one byte at a time.
func TestFileRoundTripStreamed(t *testing.T) {
	tr := compileSmall(t)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(iotest.OneByteReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if got.ContentHash() != tr.ContentHash() {
		t.Fatal("streamed read changed the content")
	}
}

func TestFileWriteReadFile(t *testing.T) {
	tr := compileSmall(t)
	path := filepath.Join(t.TempDir(), "t.cgct")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ops() != tr.Ops() {
		t.Fatalf("ops = %d, want %d", got.Ops(), tr.Ops())
	}
}

// TestFileCorruption: any flipped byte must be rejected — structurally or
// by the trailing digest.
func TestFileCorruption(t *testing.T) {
	tr := compileSmall(t)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, off := range []int{len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Errorf("flipped byte at %d accepted", off)
		}
	}
}

func TestFileTruncated(t *testing.T) {
	tr := compileSmall(t)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, keep := range []int{0, 4, 20, len(raw) / 2, len(raw) - 5} {
		if _, err := Read(bytes.NewReader(raw[:keep])); err == nil {
			t.Errorf("truncation to %d bytes accepted", keep)
		}
		// Streaming path: same truncations without a size hint.
		if _, err := Read(iotest.OneByteReader(bytes.NewReader(raw[:keep]))); err == nil {
			t.Errorf("streamed truncation to %d bytes accepted", keep)
		}
	}
}

// tinyTraceBytes serialises a hand-built single-proc trace (name "t", no
// DMA) so header fields sit at fixed offsets:
//
//	magic [0..8)  nameLen [8..10)  name [10..11)
//	procs [11..15)  dmaCount [15..19)  p0 count [19..27)  p0 kgLen [27..35)
func tinyTraceBytes(t testing.TB, pt ProcTrace) []byte {
	t.Helper()
	return traceBytes(t, &Trace{Name: "t", Procs: []ProcTrace{pt}})
}

// traceBytes serialises tr.
func traceBytes(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func validProcTrace() ProcTrace {
	var e encoder
	for _, op := range []workload.Op{
		{Kind: workload.OpLoad, Addr: 64, Gap: 3},
		{Kind: workload.OpStore, Addr: 128, Gap: 1},
	} {
		if err := e.add(op); err != nil {
			panic(err)
		}
	}
	return e.pt
}

// rawProc is one processor's on-disk columns, byte for byte.
type rawProc struct {
	count uint64
	kg, d []byte
}

// rawColumns encodes ops into on-disk columns the way the format
// specifies, independently of ProcTrace.
func rawColumns(ops ...workload.Op) rawProc {
	r := rawProc{count: uint64(len(ops))}
	var prev int64
	for _, op := range ops {
		r.kg = binary.AppendUvarint(r.kg, uint64(op.Gap)<<3|uint64(op.Kind))
		r.d = binary.AppendVarint(r.d, int64(op.Addr)-prev)
		prev = int64(op.Addr)
	}
	return r
}

// sealRaw builds a complete file named "t" with no DMA segments around
// raw column bytes and seals it with a valid digest, so a test can store
// content the encoder would never produce.
func sealRaw(procs ...rawProc) []byte {
	le := binary.LittleEndian
	b := append([]byte(nil), fileMagic[:]...)
	b = le.AppendUint16(b, 1)
	b = append(b, 't')
	b = le.AppendUint32(b, uint32(len(procs)))
	b = le.AppendUint32(b, 0)
	for _, p := range procs {
		b = le.AppendUint64(b, p.count)
		b = le.AppendUint64(b, uint64(len(p.kg)))
		b = append(b, p.kg...)
		b = le.AppendUint64(b, uint64(len(p.d)))
		b = append(b, p.d...)
	}
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// hostileHeader is a valid file with one header field mutated, and a
// substring of the error Read must return for it.
type hostileHeader struct {
	name string
	data []byte
	want string
}

// hostileHeaders lists lies a header can tell. Every one must fail with a
// descriptive error before large allocations: the structural checks run
// while streaming, ahead of the digest.
func hostileHeaders(t testing.TB) []hostileHeader {
	base := tinyTraceBytes(t, validProcTrace())
	mutate := func(off int, val []byte) []byte {
		b := append([]byte(nil), base...)
		copy(b[off:], val)
		return b
	}
	le32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	le64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	return []hostileHeader{
		{"bad magic", mutate(0, []byte{'X'}), "not a compiled CGCT trace"},
		{"huge name length", mutate(8, []byte{0xff, 0xff}), "name length"},
		{"zero procs", mutate(11, le32(0)), "processor count"},
		{"too many procs", mutate(11, le32(maxFileProcs+1)), "processor count"},
		{"huge DMA count", mutate(15, le32(1<<30)), "DMA segment count"},
		{"op count over limit", mutate(19, le64(maxFileOpsPerProc+1)), "limit"},
		{"column cannot hold ops", mutate(27, le64(1)), "cannot hold"},
		{"column beyond input", mutate(27, le64(19)), "remain"},
	}
}

func TestFileHostileHeaders(t *testing.T) {
	for _, c := range hostileHeaders(t) {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(c.data))
			if err == nil {
				t.Fatal("hostile input accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %q, want substring %q", err, c.want)
			}
		})
	}
}

// TestFileLyingCountUnsizedReader covers readers whose size is unknown
// (no Len/Seek): a header declaring 32 Mi ops and a 32 MiB kind|gap
// column, followed by nothing, must fail on truncation without
// allocating the declared amount up front.
func TestFileLyingCountUnsizedReader(t *testing.T) {
	data := append([]byte(nil), fileMagic[:]...)
	data = binary.LittleEndian.AppendUint16(data, 0)     // name length
	data = binary.LittleEndian.AppendUint32(data, 1)     // processors
	data = binary.LittleEndian.AppendUint32(data, 0)     // DMA segments
	data = binary.LittleEndian.AppendUint64(data, 1<<25) // p0 op count
	data = binary.LittleEndian.AppendUint64(data, 1<<25) // p0 kind|gap length
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Read(iotest.OneByteReader(bytes.NewReader(data)))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want a truncation error", err)
	}
	// Reading the declared column up front would take 32 MiB; the chunked
	// reader stops after one 64 KiB chunk.
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 32<<20 {
		t.Fatalf("reader allocated %d bytes for a lying count", grown)
	}
}

// dmaTraceBytes serialises a one-processor trace with the given DMA
// target segments.
func dmaTraceBytes(t testing.TB, segs ...addr.Segment) []byte {
	t.Helper()
	return traceBytes(t, &Trace{Name: "t", Procs: []ProcTrace{validProcTrace()}, DMATargets: segs})
}

// outOfRangeDMA starts inside the 40-bit address space and runs far past
// its end.
var outOfRangeDMA = addr.Segment{Base: 0xFF_FFFF_F000, Size: 1 << 50}

// TestFileRejectsOutOfRangeDMA: a DMA segment whose last byte lies above
// addr.PhysAddrMask is rejected even when the file's digest is valid,
// because the DMA agent would write to addresses that cannot exist.
func TestFileRejectsOutOfRangeDMA(t *testing.T) {
	top := addr.Addr(addr.PhysAddrMask + 1)
	for _, c := range []struct {
		name string
		seg  addr.Segment
		ok   bool
	}{
		{"runs far past the top", outOfRangeDMA, false},
		{"ends at the top", addr.Segment{Base: top - 0x1000, Size: 0x1000}, true},
		{"one byte past the top", addr.Segment{Base: top - 0x1000, Size: 0x1001}, false},
		{"whole address space", addr.Segment{Base: 0, Size: uint64(top)}, true},
		{"size wraps uint64", addr.Segment{Base: 0x1000, Size: math.MaxUint64}, false},
		{"base past the top", addr.Segment{Base: top}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(dmaTraceBytes(t, c.seg)))
			if c.ok && err != nil {
				t.Fatalf("in-range segment rejected: %v", err)
			}
			if !c.ok && (err == nil || !strings.Contains(err.Error(), "DMA segment")) {
				t.Fatalf("err = %v, want an out-of-range DMA segment error", err)
			}
		})
	}
}

// TestFileRejectsInvalidContent: structurally valid columns with invalid
// payloads (bad kind, oversized gap, out-of-range address, trailing
// bytes) are rejected even though lengths and counts agree.
func TestFileRejectsInvalidContent(t *testing.T) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	zz := func(v int64) []byte { return binary.AppendVarint(nil, v) }
	cases := []struct {
		name string
		raw  rawProc
		want string
	}{
		{"invalid kind", rawProc{1, uv(uint64(workload.NOpKinds)), zz(64)}, "op kind"},
		{"gap out of range", rawProc{1, uv(uint64(1) << 40 << 3), zz(64)}, "gap"},
		{"negative address", rawProc{1, uv(0), zz(-1)}, "address"},
		{"delta trailing bytes", rawProc{1, uv(0), append(zz(64), 0)}, "trailing"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(sealRaw(c.raw)))
			if err == nil {
				t.Fatal("invalid content accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %q, want substring %q", err, c.want)
			}
		})
	}
}

// TestFileEdgeOpsRoundTrip: ops at the edges of the packed op and of the
// escape word read, replay and write back unchanged, byte for byte: gaps
// on either side of both gap markers and the largest the format allows,
// address steps at and one past either end of the delta field, the
// lowest and highest physical addresses, and an instruction stream
// interleaved with a distant data stream, so each class's previous
// address differs from the other's.
func TestFileEdgeOpsRoundTrip(t *testing.T) {
	p0 := []workload.Op{
		{Kind: workload.OpLoad, Addr: 64, Gap: gapEscape - 1},
		{Kind: workload.OpStore, Addr: addr.Addr(addr.PhysAddrMask), Gap: gapEscape},
		{Kind: workload.OpIFetch, Addr: 0, Gap: math.MaxUint32},
		{Kind: workload.OpDCBF, Addr: 4096, Gap: 7},
	}
	p1 := []workload.Op{
		{Kind: workload.OpDCBZ, Addr: 1 << 30, Gap: math.MaxUint32 - 1},
		{Kind: workload.OpLoad, Addr: 1<<30 + 128, Gap: 0},
	}
	const top = addr.Addr(addr.PhysAddrMask)
	p2 := []workload.Op{
		{Kind: workload.OpIFetch, Addr: top - 3},
		{Kind: workload.OpLoad, Addr: maxDelta + 1, Gap: 1},
		{Kind: workload.OpIFetch, Addr: top},
		{Kind: workload.OpLoad, Addr: 2*maxDelta + 1, Gap: gapMarker - 1},
		{Kind: workload.OpStore, Addr: 3*maxDelta + 2, Gap: 3},
		{Kind: workload.OpLoad, Addr: 3*maxDelta + 2 + minDelta},
		{Kind: workload.OpLoad, Addr: 3*maxDelta + 2 + 2*minDelta - 1},
		{Kind: workload.OpIFetch, Addr: top - 64, Gap: gapMarker},
		{Kind: workload.OpDCBF, Addr: 512, Gap: gapEscape},
		{Kind: workload.OpDCBZ, Addr: 0, Gap: math.MaxUint32},
		{Kind: workload.OpLoad, Addr: 64},
		{Kind: workload.OpStore, Addr: 0},
		{Kind: workload.OpIFetch, Addr: top},
	}
	raw := sealRaw(rawColumns(p0...), rawColumns(p1...), rawColumns(p2...))
	tr, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for p, want := range [][]workload.Op{p0, p1, p2} {
		if got := collectProc(t, &tr.Procs[p], 3); !reflect.DeepEqual(got, want) {
			t.Fatalf("p%d replays %+v, want %+v", p, got, want)
		}
	}
	// p0 escapes every op: its gaps are large and its data addresses far
	// apart. p2 escapes ops 0, 1, 4, 6, 7, 8 and 9: a far first op of
	// each class, a step one past either end of the delta field, and a
	// gap of 255 or more.
	var esc, big [3]int
	for p := range tr.Procs {
		esc[p], big[p] = len(tr.Procs[p].esc), len(tr.Procs[p].bigGaps)
	}
	if esc != [3]int{4, 1, 7} || big != [3]int{2, 1, 2} {
		t.Fatalf("escaped ops %v and big gaps %v per processor, want [4 1 7] and [2 1 2]", esc, big)
	}
	if !bytes.Equal(traceBytes(t, tr), raw) {
		t.Fatal("Write does not reproduce the file it read")
	}
}

// TestWriteMatchesPinnedBytes pins the CGCTCPT1 bytes Write produces for
// two paper benchmarks, one with a single DMA segment (tpc-b) and one
// with four (tpc-h), so a change to the in-memory encoding cannot
// silently change the disk format.
func TestWriteMatchesPinnedBytes(t *testing.T) {
	for _, c := range []struct {
		bench string
		size  int
		sum   string
	}{
		{"tpc-b", 105_550, "5035698817b781b15e2ccbc62f2da645db17b925a8835182a268aa8ae02e4be1"},
		{"tpc-h", 106_146, "66453f29dce167ca81af1d69b3cee1d928cc21102f381f63350a200720b2a394"},
	} {
		tr, err := Compile(context.Background(), c.bench, workload.Params{Processors: 4, OpsPerProc: 5_000, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		raw := traceBytes(t, tr)
		if sum := sha256.Sum256(raw); len(raw) != c.size || hex.EncodeToString(sum[:]) != c.sum {
			t.Errorf("%s: wrote %d bytes with sha256 %x, want %d bytes with %s", c.bench, len(raw), sum, c.size, c.sum)
		}
	}
}

// TestContentHashPinned pins ContentHash for the two traces whose bytes
// TestWriteMatchesPinnedBytes pins, so the in-memory encoding can change
// without changing a trace's identity.
func TestContentHashPinned(t *testing.T) {
	for _, c := range []struct{ bench, hash string }{
		{"tpc-b", "c94e6db1f70904b63aff62ace4f4368831619c9de6c56a2c63c58e51b0d195d6"},
		{"tpc-h", "7221f070972752a5ee5e6ec9a0ab367db70004e07bf89d115d39eb8b27addeaa"},
	} {
		tr, err := Compile(context.Background(), c.bench, workload.Params{Processors: 4, OpsPerProc: 5_000, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.ContentHash(); got != c.hash {
			t.Errorf("%s: ContentHash = %s, want %s", c.bench, got, c.hash)
		}
	}
}

// BenchmarkTraceWriteRead measures writing and reading back a 4-proc ×
// 5K-op tpc-b trace, the size the serving tier spills to its store and
// reloads.
func BenchmarkTraceWriteRead(b *testing.B) {
	tr, err := Compile(context.Background(), "tpc-b", workload.Params{Processors: 4, OpsPerProc: 5_000, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tr.Write(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFileDigestMismatch: a corrupted trailing digest is its own error.
func TestFileDigestMismatch(t *testing.T) {
	raw := tinyTraceBytes(t, validProcTrace())
	raw[len(raw)-1] ^= 1
	_, err := Read(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("err = %v, want digest mismatch", err)
	}
}

// TestWriteRejectsUnserialisable: limits are enforced on the write side
// too, so a bad Trace cannot produce a file readers would reject.
func TestWriteRejectsUnserialisable(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Trace{Name: "empty"}).Write(&buf); err == nil {
		t.Error("zero-proc trace serialised")
	}
	long := &Trace{Name: strings.Repeat("n", maxFileName+1), Procs: []ProcTrace{validProcTrace()}}
	if err := long.Write(&buf); err == nil {
		t.Error("oversized name serialised")
	}
}
