package trace

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
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
	if got.Name != tr.Name {
		t.Fatalf("name %q, want %q", got.Name, tr.Name)
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

// TestFileTrailingBytes: an input whose size is known must end at the
// digest; bytes after it are refused, not ignored.
func TestFileTrailingBytes(t *testing.T) {
	raw := append(tinyTraceBytes(t, validProcTrace(t)), "junk"...)
	_, err := Read(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "4 bytes more than the counts declare") {
		t.Fatalf("err = %v, want the 4 trailing bytes refused", err)
	}
}

// tinyTraceBytes serialises a hand-built single-proc trace (name "t") so
// header fields sit at fixed offsets:
//
//	magic [0..8)  nameLen [8..10)  name [10..11)  procs [11..15)
//	p0 op count [15..23)  escape count [23..31)  big-gap count [31..39)
//	p0 columns [39..)
func tinyTraceBytes(t testing.TB, pt ProcTrace) []byte {
	t.Helper()
	return traceBytes(t, &Trace{Name: "t", Procs: []ProcTrace{pt}})
}

// traceBytes serialises tr. Write stores the columns as they are, so a
// hand-built ProcTrace puts content the encoder would never produce on
// disk, sealed with a valid digest.
func traceBytes(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encode compiles ops into a ProcTrace through the encoder.
func encode(t testing.TB, ops ...workload.Op) ProcTrace {
	t.Helper()
	var e encoder
	for _, op := range ops {
		if err := e.add(op); err != nil {
			t.Fatal(err)
		}
	}
	return e.pt
}

// validProcTrace is two ops, both packed: no escape words, no big gaps.
func validProcTrace(t testing.TB) ProcTrace {
	return encode(t,
		workload.Op{Kind: workload.OpLoad, Addr: 64, Gap: 3},
		workload.Op{Kind: workload.OpStore, Addr: 128, Gap: 1})
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
	base := tinyTraceBytes(t, validProcTrace(t))
	mutate := func(off int, val []byte) []byte {
		b := append([]byte(nil), base...)
		copy(b[off:], val)
		return b
	}
	le32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	le64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	return []hostileHeader{
		{"bad magic", mutate(0, []byte{'X'}), "not a compiled CGCT trace"},
		// Earlier versions are refused by their magic, never parsed as
		// version 3: version 1 carried I/O segments after procs, version 2
		// two varint columns per processor.
		{"version-1 magic", mutate(7, []byte{'1'}), `magic "CGCTCPT1"`},
		{"version-2 magic", mutate(7, []byte{'2'}), `magic "CGCTCPT2"`},
		{"huge name length", mutate(8, []byte{0xff, 0xff}), "name length"},
		{"zero procs", mutate(11, le32(0)), "processor count"},
		{"too many procs", mutate(11, le32(maxFileProcs+1)), "processor count"},
		{"op count over limit", mutate(15, le64(maxFileOpsPerProc+1)), "limit"},
		{"escape count over op count", mutate(23, le64(3)), "3 escape words, more than its 2 ops"},
		{"big-gap count over escape count", mutate(31, le64(1)), "1 big gaps, more than its 0 escape words"},
		// Two ops' 8 bytes remain before the digest; three need 12.
		{"column beyond input", mutate(15, le64(3)), "op column needs 12 bytes but only 8 remain"},
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

// lyingCountRead reads, through wrap, a header declaring 32 Mi ops for
// p0, a 128 MiB op column, followed by only a digest's worth of bytes, and
// returns the bytes allocated meanwhile and Read's error.
func lyingCountRead(wrap func(io.Reader) io.Reader) (uint64, error) {
	data := append([]byte(nil), fileMagic[:]...)
	data = binary.LittleEndian.AppendUint16(data, 0)     // name length
	data = binary.LittleEndian.AppendUint32(data, 1)     // processors
	data = binary.LittleEndian.AppendUint64(data, 1<<25) // p0 op count
	data = binary.LittleEndian.AppendUint64(data, 0)     // p0 escape count
	data = binary.LittleEndian.AppendUint64(data, 0)     // p0 big-gap count
	data = append(data, make([]byte, sha256.Size)...)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Read(wrap(bytes.NewReader(data)))
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// TestFileLyingCountUnsizedReader covers readers whose size is unknown
// (no Len/Seek): a lying op count must fail on truncation without
// allocating the declared column up front.
func TestFileLyingCountUnsizedReader(t *testing.T) {
	grown, err := lyingCountRead(iotest.OneByteReader)
	if err == nil || !strings.Contains(err.Error(), "truncated reading p0 op column") {
		t.Fatalf("err = %v, want a truncation error in p0's op column", err)
	}
	// The reader's buffer is one chunk and the column gets one more before
	// the first read of it fails.
	if grown > 3*colChunk {
		t.Fatalf("reader allocated %d bytes for a lying count, want at most %d", grown, 3*colChunk)
	}
}

// TestFileLyingCountSizedReader: with the input's size known, the same
// lying count fails against the bytes that remain, before the column is
// allocated at all.
func TestFileLyingCountSizedReader(t *testing.T) {
	grown, err := lyingCountRead(func(r io.Reader) io.Reader { return r })
	if err == nil || !strings.Contains(err.Error(), "p0 op column needs 134217728 bytes but only 0 remain") {
		t.Fatalf("err = %v, want p0's op column refused against the input's size", err)
	}
	if grown > 2*colChunk {
		t.Fatalf("reader allocated %d bytes for a lying count, want at most %d", grown, 2*colChunk)
	}
}

// TestFileRejectsInvalidContent: columns whose counts agree with their
// lengths but whose words a Cursor could not replay (a marker with no
// escape word, an escape value with no big gap, or the reverse), or would
// replay into an invalid op (an unknown kind in either kind of word, a
// big gap an escape word could hold, a delta chain leaving the 40-bit
// address space), are rejected even under a valid digest.
func TestFileRejectsInvalidContent(t *testing.T) {
	const (
		marker = gapMarker << kindBits
		load   = uint32(workload.OpLoad)
	)
	packed := func(delta int32, kind uint32) uint32 { return uint32(delta)<<deltaShift | kind }
	escWord := func(a uint64, gap uint32, kind uint64) uint64 { return a<<addrShift | uint64(gap)<<kindBits | kind }
	cases := []struct {
		name string
		pt   ProcTrace
		want string
	}{
		{"invalid kind", ProcTrace{ops: []uint32{packed(64, uint32(workload.NOpKinds))}}, "invalid op kind"},
		{"invalid escape kind", ProcTrace{ops: []uint32{marker}, esc: []uint64{escWord(64, 0, uint64(workload.NOpKinds))}}, "invalid op kind"},
		{"gap out of range", ProcTrace{ops: []uint32{marker}, esc: []uint64{escWord(64, gapEscape, 0)}, bigGaps: []uint32{gapEscape - 1}}, "out of range"},
		{"negative address", ProcTrace{ops: []uint32{packed(-1, load)}}, "physical address space"},
		{"address past 40 bits", ProcTrace{ops: []uint32{marker, packed(1, load)}, esc: []uint64{escWord(addr.PhysAddrMask, 0, 0)}}, "physical address space"},
		{"marker without escape word", ProcTrace{ops: []uint32{marker, marker}, esc: []uint64{escWord(64, 0, 0)}}, "1 escape words for 2 ops"},
		{"escape column trailing words", ProcTrace{ops: []uint32{packed(64, load)}, esc: []uint64{escWord(64, 0, 0)}}, "1 escape words for 0 ops"},
		{"escape value without big gap", ProcTrace{ops: []uint32{marker}, esc: []uint64{escWord(64, gapEscape, 0)}}, "0 big gaps for 1 escape words"},
		{"big-gap column trailing gaps", ProcTrace{ops: []uint32{marker}, esc: []uint64{escWord(64, 5, 0)}, bigGaps: []uint32{gapEscape}}, "1 big gaps for 0 escape words"},
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

// TestFileEdgeOpsRoundTrip: ops at the edges of the packed op and of the
// escape word encode, write, read and replay unchanged, and write back
// byte for byte: gaps on either side of both gap markers and the largest
// the format allows, address steps at and one past either end of the
// delta field, the lowest and highest physical addresses, and an
// instruction stream interleaved with a distant data stream, so each
// class's previous address differs from the other's.
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
	raw := traceBytes(t, &Trace{Name: "t", Procs: []ProcTrace{encode(t, p0...), encode(t, p1...), encode(t, p2...)}})
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

// TestWriteMatchesPinnedBytes pins the CGCTCPT3 bytes Write produces for
// two paper benchmarks, tpc-b and tpc-h. The file stores the slab as it
// is, so a change to the slab's layout fails here and must bump the
// format's magic along with these pins.
func TestWriteMatchesPinnedBytes(t *testing.T) {
	for _, c := range []struct {
		bench string
		size  int
		sum   string
	}{
		{"tpc-b", 83_179, "3cb41d5b2c9b918d61a138aeb15ed62721db6e0e9d4db8c6de0a0dfa46c20863"},
		{"tpc-h", 83_055, "4c66a7ece461c3ac6eb16743a42591e3e7d650c9523c1fd9c47b99df1003cdc7"},
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
		{"tpc-b", "0c5dc84d78ccb8a78f34461ae772c6593051b613db5a702c5a26f523e00fe4c7"},
		{"tpc-h", "b7be7cebc9bc5ead497440fa6f67bad8e3a272ad535c823457a9b88c18f4c10a"},
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
	raw := tinyTraceBytes(t, validProcTrace(t))
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
	long := &Trace{Name: strings.Repeat("n", maxFileName+1), Procs: []ProcTrace{validProcTrace(t)}}
	if err := long.Write(&buf); err == nil {
		t.Error("oversized name serialised")
	}
}
