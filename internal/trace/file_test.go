package trace

import (
	"bytes"
	"context"
	"encoding/binary"
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

// traceBytes serialises tr. Write checks sizes, not content, so a trace
// with invalid content still gets a valid digest.
func traceBytes(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func validProcTrace() ProcTrace {
	e := newEncoder(2)
	e.add(workload.Op{Kind: workload.OpLoad, Addr: 64, Gap: 3})
	e.add(workload.Op{Kind: workload.OpStore, Addr: 128, Gap: 1})
	return e.pt
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
	cases := []struct {
		name string
		pt   ProcTrace
		want string
	}{
		{"invalid kind", ProcTrace{
			kindGap: []uint64{uint64(workload.NOpKinds)},
			deltas:  binary.AppendVarint(nil, 64),
		}, "op kind"},
		{"gap out of range", ProcTrace{
			kindGap: []uint64{uint64(1) << 40 << 3},
			deltas:  binary.AppendVarint(nil, 64),
		}, "gap"},
		{"negative address", ProcTrace{
			kindGap: []uint64{0},
			deltas:  binary.AppendVarint(nil, -1),
		}, "address"},
		{"delta trailing bytes", ProcTrace{
			kindGap: []uint64{0},
			deltas:  append(binary.AppendVarint(nil, 64), 0),
		}, "trailing"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(tinyTraceBytes(t, c.pt)))
			if err == nil {
				t.Fatal("invalid content accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %q, want substring %q", err, c.want)
			}
		})
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
