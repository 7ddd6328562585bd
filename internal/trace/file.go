package trace

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
	"os"

	"cgct/internal/addr"
	"cgct/internal/workload"
)

// On-disk compiled trace format, version 1 ("CGCTCPT1"), little-endian:
//
//	magic    [8]byte  "CGCTCPT1"
//	nameLen  uint16 (≤ maxFileName) + name bytes
//	procs    uint32 (1 .. maxFileProcs)
//	dmaCount uint32 (≤ maxFileDMASegments)
//	dma      dmaCount × { base uint64, size uint64 }
//	per processor:
//	    count  uint64  ops (≤ maxFileOpsPerProc)
//	    kgLen  uint64  bytes of the kind|gap column
//	    kg     count × uvarint(gap<<3 | kind)
//	    dLen   uint64  bytes of the address-delta column
//	    d      count × zigzag-varint(addr − prevAddr)
//	sum      [32]byte sha256 over every preceding byte
//
// The format is versioned through the magic; readers reject unknown
// versions. Every header count is untrusted: allocations track bytes
// actually read (never a declared count alone), column lengths are
// validated against the varints they must contain and — when the input's
// size is known — against the bytes available, and the trailing digest
// rejects any corruption the structural checks miss. A trace compiled
// once with cgcttrace -compile can therefore be served from disk to any
// number of consumers with integrity guaranteed.

// fileMagic identifies version 1 of the compiled trace format.
var fileMagic = [8]byte{'C', 'G', 'C', 'T', 'C', 'P', 'T', '1'}

const (
	maxFileName        = 256
	maxFileProcs       = 1024
	maxFileDMASegments = 1024
	// maxFileOpsPerProc bounds one processor's declared op count (64 Mi
	// ops, far beyond any real trace).
	maxFileOpsPerProc = 64 << 20
	// colChunk caps each column-read allocation: growth tracks bytes
	// actually read, so a lying length costs at most one chunk.
	colChunk = 64 << 10
)

// appendKindGaps appends p's on-disk kind|gap column to b:
// uvarint(gap<<3 | kind) per op, escaped gaps restored.
func (p *ProcTrace) appendKindGaps(b []byte) []byte {
	big := p.bigGaps
	for _, w := range p.ops {
		gap := w >> kindBits & gapEscape
		if gap == gapEscape {
			gap, big = uint64(big[0]), big[1:]
		}
		b = binary.AppendUvarint(b, gap<<3|w&kindMask)
	}
	return b
}

// appendDeltas appends p's on-disk address column to b: zigzag-varint of
// each op's address minus the previous op's (starting from 0).
func (p *ProcTrace) appendDeltas(b []byte) []byte {
	var prev uint64
	for _, w := range p.ops {
		a := w >> addrShift
		b = binary.AppendVarint(b, int64(a-prev))
		prev = a
	}
	return b
}

// Write serialises the trace. The stream ends with a sha256 of everything
// written before it.
func (t *Trace) Write(w io.Writer) error {
	if len(t.Name) > maxFileName {
		return fmt.Errorf("trace: name %q too long to serialise (limit %d)", t.Name, maxFileName)
	}
	if len(t.Procs) == 0 || len(t.Procs) > maxFileProcs {
		return fmt.Errorf("trace: cannot serialise %d processors (limit %d)", len(t.Procs), maxFileProcs)
	}
	if len(t.DMATargets) > maxFileDMASegments {
		return fmt.Errorf("trace: %d DMA segments exceed limit %d", len(t.DMATargets), maxFileDMASegments)
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	h := sha256.New()
	mw := io.MultiWriter(bw, h)

	var scratch [8]byte
	w64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		_, err := mw.Write(scratch[:8])
		return err
	}
	if _, err := mw.Write(fileMagic[:]); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	binary.LittleEndian.PutUint16(scratch[:2], uint16(len(t.Name)))
	if _, err := mw.Write(scratch[:2]); err != nil {
		return err
	}
	if _, err := io.WriteString(mw, t.Name); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(t.Procs)))
	if _, err := mw.Write(scratch[:4]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(t.DMATargets)))
	if _, err := mw.Write(scratch[:4]); err != nil {
		return err
	}
	for _, s := range t.DMATargets {
		if err := w64(uint64(s.Base)); err != nil {
			return err
		}
		if err := w64(s.Size); err != nil {
			return err
		}
	}
	// Each column is encoded whole into col, reused across processors, and
	// written behind its length in one call.
	col := make([]byte, 0, colChunk)
	writeCol := func() error {
		if err := w64(uint64(len(col))); err != nil {
			return err
		}
		_, err := mw.Write(col)
		return err
	}
	for i := range t.Procs {
		pt := &t.Procs[i]
		if err := w64(uint64(len(pt.ops))); err != nil {
			return err
		}
		col = pt.appendKindGaps(col[:0])
		if err := writeCol(); err != nil {
			return err
		}
		col = pt.appendDeltas(col[:0])
		if err := writeCol(); err != nil {
			return err
		}
	}
	if _, err := bw.Write(h.Sum(nil)); err != nil { // digest itself is unhashed
		return err
	}
	return bw.Flush()
}

// WriteFile writes the trace to path in the versioned binary format.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fileReader threads the pieces Read's helpers need: the hashed stream,
// the running digest, and the remaining-input bound (-1 = unknown).
type fileReader struct {
	r         io.Reader // tee through the digest
	raw       *bufio.Reader
	h         hash.Hash
	remaining int64
}

func (fr *fileReader) full(buf []byte, what string) error {
	if fr.remaining >= 0 && int64(len(buf)) > fr.remaining {
		return fmt.Errorf("trace: %s needs %d bytes but only %d remain", what, len(buf), fr.remaining)
	}
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		return fmt.Errorf("trace: truncated reading %s: %w", what, err)
	}
	if fr.remaining >= 0 {
		fr.remaining -= int64(len(buf))
	}
	return nil
}

func (fr *fileReader) u64(what string) (uint64, error) {
	var b [8]byte
	if err := fr.full(b[:], what); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// column reads a declared-length byte column in bounded chunks: a lying
// length fails on truncation after at most one chunk of over-allocation.
func (fr *fileReader) column(declared uint64, what string) ([]byte, error) {
	if fr.remaining >= 0 && int64(declared) > fr.remaining {
		return nil, fmt.Errorf("trace: %s declares %d bytes but only %d remain", what, declared, fr.remaining)
	}
	buf := make([]byte, 0, min(declared, colChunk))
	for uint64(len(buf)) < declared {
		n := min(declared-uint64(len(buf)), colChunk)
		start := len(buf)
		buf = append(buf, make([]byte, n)...)
		if _, err := io.ReadFull(fr.r, buf[start:]); err != nil {
			return nil, fmt.Errorf("trace: truncated reading %s: %w", what, err)
		}
		if fr.remaining >= 0 {
			fr.remaining -= int64(n)
		}
	}
	return buf, nil
}

// Read deserialises a compiled trace written by Write, validating every
// header field against sane limits (and, for sized inputs, against the
// bytes available) before allocating, and verifying the trailing digest.
func Read(r io.Reader) (*Trace, error) {
	remaining := int64(-1)
	if lr, ok := r.(interface{ Len() int }); ok {
		remaining = int64(lr.Len())
	} else if s, ok := r.(io.Seeker); ok {
		if pos, err := s.Seek(0, io.SeekCurrent); err == nil {
			if end, err := s.Seek(0, io.SeekEnd); err == nil {
				if _, err := s.Seek(pos, io.SeekStart); err == nil {
					remaining = end - pos
				}
			}
		}
	}
	if remaining >= 0 {
		remaining -= sha256.Size // the digest is read outside the hashed stream
		if remaining < 0 {
			return nil, fmt.Errorf("trace: input too short for a compiled trace")
		}
	}
	br := bufio.NewReaderSize(r, 64<<10)
	h := sha256.New()
	fr := &fileReader{r: io.TeeReader(br, h), raw: br, h: h, remaining: remaining}

	var magic [8]byte
	if err := fr.full(magic[:], "magic"); err != nil {
		return nil, err
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("trace: not a compiled CGCT trace (magic %q)", magic[:])
	}
	var b2 [2]byte
	if err := fr.full(b2[:], "name length"); err != nil {
		return nil, err
	}
	nameLen := binary.LittleEndian.Uint16(b2[:])
	if nameLen > maxFileName {
		return nil, fmt.Errorf("trace: implausible name length %d (limit %d)", nameLen, maxFileName)
	}
	name := make([]byte, nameLen)
	if err := fr.full(name, "name"); err != nil {
		return nil, err
	}
	var b4 [4]byte
	if err := fr.full(b4[:], "processor count"); err != nil {
		return nil, err
	}
	procs := binary.LittleEndian.Uint32(b4[:])
	if procs == 0 || procs > maxFileProcs {
		return nil, fmt.Errorf("trace: implausible processor count %d (limit %d)", procs, maxFileProcs)
	}
	if err := fr.full(b4[:], "DMA segment count"); err != nil {
		return nil, err
	}
	dmaCount := binary.LittleEndian.Uint32(b4[:])
	if dmaCount > maxFileDMASegments {
		return nil, fmt.Errorf("trace: implausible DMA segment count %d (limit %d)", dmaCount, maxFileDMASegments)
	}
	t := &Trace{Name: string(name), Procs: make([]ProcTrace, procs)}
	for i := uint32(0); i < dmaCount; i++ {
		base, err := fr.u64("DMA segment base")
		if err != nil {
			return nil, err
		}
		size, err := fr.u64("DMA segment size")
		if err != nil {
			return nil, err
		}
		// The DMA agent writes anywhere in the segment, so its last byte
		// must be a valid physical address too.
		if base > addr.PhysAddrMask || size > addr.PhysAddrMask-base+1 {
			return nil, fmt.Errorf("trace: DMA segment [%x, +%x) out of range", base, size)
		}
		t.DMATargets = append(t.DMATargets, addr.Segment{Base: addr.Addr(base), Size: size})
	}
	for p := uint32(0); p < procs; p++ {
		count, err := fr.u64(fmt.Sprintf("p%d op count", p))
		if err != nil {
			return nil, err
		}
		if count > maxFileOpsPerProc {
			return nil, fmt.Errorf("trace: p%d declares %d ops (limit %d)", p, count, maxFileOpsPerProc)
		}
		kgLen, err := fr.u64(fmt.Sprintf("p%d kind|gap length", p))
		if err != nil {
			return nil, err
		}
		// Each op encodes to 1..MaxVarintLen64 bytes in either column.
		if kgLen < count || kgLen > count*binary.MaxVarintLen64 {
			return nil, fmt.Errorf("trace: p%d kind|gap column of %d bytes cannot hold %d ops", p, kgLen, count)
		}
		kg, err := fr.column(kgLen, fmt.Sprintf("p%d kind|gap column", p))
		if err != nil {
			return nil, err
		}
		pt := &t.Procs[p]
		if err := pt.decodeKindGaps(kg, count, p); err != nil {
			return nil, err
		}
		dLen, err := fr.u64(fmt.Sprintf("p%d delta length", p))
		if err != nil {
			return nil, err
		}
		if dLen < count || dLen > count*binary.MaxVarintLen64 {
			return nil, fmt.Errorf("trace: p%d delta column of %d bytes cannot hold %d ops", p, dLen, count)
		}
		deltas, err := fr.column(dLen, fmt.Sprintf("p%d delta column", p))
		if err != nil {
			return nil, err
		}
		if err := pt.decodeDeltas(deltas, p); err != nil {
			return nil, err
		}
	}
	want := fr.h.Sum(nil)
	var got [sha256.Size]byte
	if _, err := io.ReadFull(fr.raw, got[:]); err != nil {
		return nil, fmt.Errorf("trace: truncated reading digest: %w", err)
	}
	if [sha256.Size]byte(want) != got {
		return nil, fmt.Errorf("trace: digest mismatch — file corrupt")
	}
	t.hash = computeHash(t)
	return t, nil
}

// decodeKindGaps unpacks a kind|gap column into the kind and gap bits of
// pt's words, validating kinds and gap range. count ≤ len(kg) is already
// established, so the word slice allocation is backed by bytes actually
// read.
func (pt *ProcTrace) decodeKindGaps(kg []byte, count uint64, p uint32) error {
	pt.ops = make([]uint64, 0, count)
	off := 0
	for i := uint64(0); i < count; i++ {
		v, n := binary.Uvarint(kg[off:])
		if n <= 0 {
			return fmt.Errorf("trace: corrupt kind|gap varint at p%d[%d]", p, i)
		}
		off += n
		kind, gap := v&7, v>>3
		if workload.OpKind(kind) >= workload.NOpKinds {
			return fmt.Errorf("trace: invalid op kind %d at p%d[%d]", kind, p, i)
		}
		if gap > math.MaxUint32 {
			return fmt.Errorf("trace: gap %d out of range at p%d[%d]", gap, p, i)
		}
		pt.ops = append(pt.ops, pt.lowBits(kind, uint32(gap)))
	}
	if off != len(kg) {
		return fmt.Errorf("trace: p%d kind|gap column has %d trailing bytes", p, len(kg)-off)
	}
	return nil
}

// decodeDeltas fills in the address bits of pt's words from the delta
// column, checking it holds exactly one varint per op and that the
// running sum stays a valid physical address — cursors can then replay
// without per-op error paths.
func (pt *ProcTrace) decodeDeltas(deltas []byte, p uint32) error {
	off := 0
	var cur int64
	for i := range pt.ops {
		d, n := binary.Varint(deltas[off:])
		if n <= 0 {
			return fmt.Errorf("trace: corrupt address varint at p%d[%d]", p, i)
		}
		off += n
		cur += d
		if cur < 0 || uint64(cur) > addr.PhysAddrMask {
			return fmt.Errorf("trace: address %x out of range at p%d[%d]", uint64(cur), p, i)
		}
		pt.ops[i] |= uint64(cur) << addrShift
	}
	if off != len(deltas) {
		return fmt.Errorf("trace: p%d delta column has %d trailing bytes", p, len(deltas)-off)
	}
	return nil
}

// ReadFile loads a compiled trace from path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
