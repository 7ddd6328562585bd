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

// On-disk compiled trace format, version 2 ("CGCTCPT2"), little-endian:
//
//	magic    [8]byte  "CGCTCPT2"
//	nameLen  uint16 (≤ maxFileName) + name bytes
//	procs    uint32 (1 .. maxFileProcs)
//	per processor:
//	    count  uint64  ops (≤ maxFileOpsPerProc)
//	    kgLen  uint64  bytes of the kind|gap column
//	    kg     count × uvarint(gap<<3 | kind)
//	    dLen   uint64  bytes of the address-delta column
//	    d      count × zigzag-varint(addr − prevAddr)
//	sum      [32]byte sha256 over every preceding byte
//
// The format is versioned through the magic; readers reject unknown
// versions, so a version-1 file (which carried a block of I/O segments
// after procs) is refused by its magic rather than misparsed. Every
// header count is untrusted: allocations track bytes actually read
// (never a declared count alone), column lengths are validated against
// the varints they must contain and — when the input's size is known —
// against the bytes available, and the trailing digest rejects any
// corruption the structural checks miss. A trace compiled
// once with cgcttrace -compile can therefore be served from disk to any
// number of consumers with integrity guaranteed.

// fileMagic identifies version 2 of the compiled trace format.
var fileMagic = [8]byte{'C', 'G', 'C', 'T', 'C', 'P', 'T', '2'}

const (
	maxFileName  = 256
	maxFileProcs = 1024
	// maxFileOpsPerProc bounds one processor's declared op count (64 Mi
	// ops, far beyond any real trace).
	maxFileOpsPerProc = 64 << 20
	// colChunk caps each column-read allocation: growth tracks bytes
	// actually read, so a lying length costs at most one chunk.
	colChunk = 64 << 10
)

// appendColumns appends p's two on-disk columns, derived in one decoding
// pass: uvarint(gap<<3 | kind) per op to kg, and to d the zigzag-varint
// of each op's address minus the previous op's (starting from 0),
// whatever their classes.
func (p *ProcTrace) appendColumns(kg, d []byte) ([]byte, []byte) {
	var (
		batch [128]workload.Op
		prev  uint64
	)
	c := Cursor{t: p}
	for n := c.Fill(batch[:]); n > 0; n = c.Fill(batch[:]) {
		for _, op := range batch[:n] {
			kg = binary.AppendUvarint(kg, uint64(op.Gap)<<3|uint64(op.Kind))
			d = binary.AppendVarint(d, int64(uint64(op.Addr)-prev))
			prev = uint64(op.Addr)
		}
	}
	return kg, d
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
	// Each processor's two columns are encoded whole into kg and d, reused
	// across processors, and each is written behind its length in one call.
	kg, d := make([]byte, 0, colChunk), make([]byte, 0, colChunk)
	writeCol := func(col []byte) error {
		if err := w64(uint64(len(col))); err != nil {
			return err
		}
		_, err := mw.Write(col)
		return err
	}
	for i := range t.Procs {
		pt := &t.Procs[i]
		if err := w64(uint64(pt.Len())); err != nil {
			return err
		}
		kg, d = pt.appendColumns(kg[:0], d[:0])
		if err := writeCol(kg); err != nil {
			return err
		}
		if err := writeCol(d); err != nil {
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
// the running digest, the remaining-input bound (-1 = unknown), and the
// processor whose columns are being read (-1 in the header), which error
// messages name, so a read need not format its description up front.
type fileReader struct {
	r         io.Reader // tee through the digest
	raw       *bufio.Reader
	h         hash.Hash
	remaining int64
	proc      int
	b8        [8]byte // u64's buffer
}

// name describes what is being read for an error message.
func (fr *fileReader) name(what string) string {
	if fr.proc < 0 {
		return what
	}
	return fmt.Sprintf("p%d %s", fr.proc, what)
}

func (fr *fileReader) full(buf []byte, what string) error {
	if fr.remaining >= 0 && int64(len(buf)) > fr.remaining {
		return fmt.Errorf("trace: %s needs %d bytes but only %d remain", fr.name(what), len(buf), fr.remaining)
	}
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		return fmt.Errorf("trace: truncated reading %s: %w", fr.name(what), err)
	}
	if fr.remaining >= 0 {
		fr.remaining -= int64(len(buf))
	}
	return nil
}

func (fr *fileReader) u64(what string) (uint64, error) {
	if err := fr.full(fr.b8[:], what); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(fr.b8[:]), nil
}

// column reads a declared-length byte column into buf's storage, in
// bounded chunks: a lying length fails on truncation after at most one
// chunk of over-allocation.
func (fr *fileReader) column(buf []byte, declared uint64, what string) ([]byte, error) {
	if fr.remaining >= 0 && int64(declared) > fr.remaining {
		return nil, fmt.Errorf("trace: %s declares %d bytes but only %d remain", fr.name(what), declared, fr.remaining)
	}
	buf = buf[:0]
	for uint64(len(buf)) < declared {
		n := min(declared-uint64(len(buf)), colChunk)
		start := len(buf)
		buf = append(buf, make([]byte, n)...)
		if _, err := io.ReadFull(fr.r, buf[start:]); err != nil {
			return nil, fmt.Errorf("trace: truncated reading %s: %w", fr.name(what), err)
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
	fr := &fileReader{r: io.TeeReader(br, h), raw: br, h: h, remaining: remaining, proc: -1}

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
	t := &Trace{Name: string(name), Procs: make([]ProcTrace, procs)}
	// The two column buffers are reused across processors.
	var kg, deltas []byte
	for p := uint32(0); p < procs; p++ {
		fr.proc = int(p)
		count, err := fr.u64("op count")
		if err != nil {
			return nil, err
		}
		if count > maxFileOpsPerProc {
			return nil, fmt.Errorf("trace: p%d declares %d ops (limit %d)", p, count, maxFileOpsPerProc)
		}
		kgLen, err := fr.u64("kind|gap length")
		if err != nil {
			return nil, err
		}
		// Each op encodes to 1..MaxVarintLen64 bytes in either column.
		if kgLen < count || kgLen > count*binary.MaxVarintLen64 {
			return nil, fmt.Errorf("trace: p%d kind|gap column of %d bytes cannot hold %d ops", p, kgLen, count)
		}
		kg, err = fr.column(kg, kgLen, "kind|gap column")
		if err != nil {
			return nil, err
		}
		dLen, err := fr.u64("delta length")
		if err != nil {
			return nil, err
		}
		if dLen < count || dLen > count*binary.MaxVarintLen64 {
			return nil, fmt.Errorf("trace: p%d delta column of %d bytes cannot hold %d ops", p, dLen, count)
		}
		deltas, err = fr.column(deltas, dLen, "delta column")
		if err != nil {
			return nil, err
		}
		if t.Procs[p], err = decodeColumns(kg, deltas, count, p); err != nil {
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
	return t, nil
}

// decodeColumns decodes processor p's kind|gap and delta columns in
// lockstep, straight into an encoder, checking that each holds exactly
// count varints, that every kind and gap fits an op and that the running
// address stays a valid physical address — cursors can then replay
// without per-op error paths. count ≤ len(kg) is already established, so
// the op column's allocation is backed by bytes actually read.
func decodeColumns(kg, deltas []byte, count uint64, p uint32) (ProcTrace, error) {
	e := encoder{pt: ProcTrace{ops: make([]uint32, 0, count)}}
	var (
		ko, do int
		a      uint64
	)
	for i := uint64(0); i < count; i++ {
		v, n := binary.Uvarint(kg[ko:])
		if n <= 0 {
			return ProcTrace{}, fmt.Errorf("trace: corrupt kind|gap varint at p%d[%d]", p, i)
		}
		ko += n
		d, n := binary.Varint(deltas[do:])
		if n <= 0 {
			return ProcTrace{}, fmt.Errorf("trace: corrupt address varint at p%d[%d]", p, i)
		}
		do += n
		if v>>3 > math.MaxUint32 {
			return ProcTrace{}, fmt.Errorf("trace: gap %d out of range at p%d[%d]", v>>3, p, i)
		}
		// Wrapping arithmetic is safe: a sum that leaves [0, PhysAddrMask]
		// lands above it, and add rejects it.
		a += uint64(d)
		if err := e.add(workload.Op{Kind: workload.OpKind(v & kindMask), Addr: addr.Addr(a), Gap: uint32(v >> 3)}); err != nil {
			return ProcTrace{}, fmt.Errorf("trace: p%d[%d]: %w", p, i, err)
		}
	}
	if ko != len(kg) {
		return ProcTrace{}, fmt.Errorf("trace: p%d kind|gap column has %d trailing bytes", p, len(kg)-ko)
	}
	if do != len(deltas) {
		return ProcTrace{}, fmt.Errorf("trace: p%d delta column has %d trailing bytes", p, len(deltas)-do)
	}
	return e.pt, nil
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
