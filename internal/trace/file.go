package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"

	"cgct/internal/addr"
	"cgct/internal/workload"
)

// On-disk compiled trace format, version 3 ("CGCTCPT3"), little-endian:
//
//	magic    [8]byte  "CGCTCPT3"
//	nameLen  uint16 (≤ maxFileName) + name bytes
//	procs    uint32 (1 .. maxFileProcs)
//	per processor, its ProcTrace slab as memory holds it:
//	    nOps, nEsc, nBig  uint64 each (nBig ≤ nEsc ≤ nOps ≤ maxFileOpsPerProc)
//	    ops      nOps × uint32
//	    esc      nEsc × uint64
//	    bigGaps  nBig × uint32
//	sum      [32]byte sha256 over every preceding byte
//
// Write and Read move columns and never re-encode an op, so the version
// follows the slab layout: a layout change bumps the magic, by which
// readers refuse every other version (1 carried I/O segments, 2 two varint
// columns) rather than misparse it. Every count is untrusted: each is
// bounded before anything is allocated, a column is checked against the
// bytes available when the input's size is known and otherwise grows only
// with bytes read, and Read checks what a Cursor assumes of the columns.
// The trailing digest, at which a sized input must end, rejects any
// corruption the structural checks miss.

// fileMagic identifies version 3 of the compiled trace format.
var fileMagic = [8]byte{'C', 'G', 'C', 'T', 'C', 'P', 'T', '3'}

const (
	maxFileName  = 256
	maxFileProcs = 1024
	// maxFileOpsPerProc bounds one processor's declared op count (64 Mi
	// ops, far beyond any real trace).
	maxFileOpsPerProc = 64 << 20
	// colChunk sizes the buffer Read reads columns through. A column the
	// input's size does not vouch for grows a chunk at a time, so a lying
	// count costs at most one chunk.
	colChunk = 64 << 10
)

// Write serialises the trace. Each processor's counts and columns go out
// in one call, from a buffer reused across processors that grows to the
// largest, and the stream ends with a sha256 of everything before it.
func (t *Trace) Write(w io.Writer) error {
	if len(t.Name) > maxFileName {
		return fmt.Errorf("trace: name %q too long to serialise (limit %d)", t.Name, maxFileName)
	}
	if len(t.Procs) == 0 || len(t.Procs) > maxFileProcs {
		return fmt.Errorf("trace: cannot serialise %d processors (limit %d)", len(t.Procs), maxFileProcs)
	}
	le := binary.LittleEndian
	h := sha256.New()
	buf := append([]byte(nil), fileMagic[:]...)
	buf = le.AppendUint16(buf, uint16(len(t.Name)))
	buf = append(buf, t.Name...)
	buf = le.AppendUint32(buf, uint32(len(t.Procs)))
	for i := range t.Procs {
		p := &t.Procs[i]
		buf = slices.Grow(buf, 24+int(p.Bytes()))
		buf = le.AppendUint64(buf, uint64(len(p.ops)))
		buf = le.AppendUint64(buf, uint64(len(p.esc)))
		buf = le.AppendUint64(buf, uint64(len(p.bigGaps)))
		for _, v := range p.ops {
			buf = le.AppendUint32(buf, v)
		}
		for _, v := range p.esc {
			buf = le.AppendUint64(buf, v)
		}
		for _, v := range p.bigGaps {
			buf = le.AppendUint32(buf, v)
		}
		h.Write(buf)
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("trace: writing p%d: %w", i, err)
		}
		buf = buf[:0]
	}
	if _, err := w.Write(h.Sum(buf)); err != nil { // the digest itself is unhashed
		return fmt.Errorf("trace: writing digest: %w", err)
	}
	return nil
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

// fileReader threads the pieces Read's helpers need: the stream teed
// through the running digest, the remaining-input bound (-1 = unknown),
// the processor being read (-1 in the header), which error messages
// name, and the buffer every field and column is read through.
type fileReader struct {
	r         io.Reader
	remaining int64
	proc      int
	buf       []byte
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

// column reads a column of n words, width bytes each, decoding each with
// get. n is already bounded. When the input's size is known, the column
// is checked against it and allocated once; otherwise it grows with the
// chunks actually read.
func column[T uint32 | uint64](fr *fileReader, n uint64, width int, get func([]byte) T, what string) ([]T, error) {
	if n == 0 {
		return nil, nil
	}
	size, capacity := n*uint64(width), n
	if fr.remaining < 0 {
		capacity = min(n, uint64(len(fr.buf)/width))
	} else if size > uint64(fr.remaining) {
		return nil, fmt.Errorf("trace: %s needs %d bytes but only %d remain", fr.name(what), size, fr.remaining)
	}
	col := make([]T, 0, capacity)
	for left := size; left > 0; {
		b := fr.buf[:min(left, uint64(len(fr.buf)))]
		if err := fr.full(b, what); err != nil {
			return nil, err
		}
		left -= uint64(len(b))
		for ; len(b) > 0; b = b[width:] {
			col = append(col, get(b))
		}
	}
	return col, nil
}

// Read deserialises a compiled trace written by Write. It bounds every
// count before allocating, checks each processor's columns as a Cursor
// will replay them, and verifies the trailing digest.
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
	h := sha256.New()
	fr := &fileReader{r: io.TeeReader(r, h), remaining: remaining, proc: -1, buf: make([]byte, colChunk)}
	le := binary.LittleEndian
	if err := fr.full(fr.buf[:8], "magic"); err != nil {
		return nil, err
	}
	if [8]byte(fr.buf) != fileMagic {
		return nil, fmt.Errorf("trace: not a compiled CGCT trace (magic %q; this version reads %q)", fr.buf[:8], fileMagic[:])
	}
	if err := fr.full(fr.buf[:2], "name length"); err != nil {
		return nil, err
	}
	nameLen := le.Uint16(fr.buf)
	if nameLen > maxFileName {
		return nil, fmt.Errorf("trace: implausible name length %d (limit %d)", nameLen, maxFileName)
	}
	if err := fr.full(fr.buf[:nameLen], "name"); err != nil {
		return nil, err
	}
	name := string(fr.buf[:nameLen])
	if err := fr.full(fr.buf[:4], "processor count"); err != nil {
		return nil, err
	}
	procs := le.Uint32(fr.buf)
	if procs == 0 || procs > maxFileProcs {
		return nil, fmt.Errorf("trace: implausible processor count %d (limit %d)", procs, maxFileProcs)
	}
	t := &Trace{Name: name, Procs: make([]ProcTrace, procs)}
	for p := range t.Procs {
		fr.proc = p
		if err := fr.full(fr.buf[:24], "counts"); err != nil {
			return nil, err
		}
		nOps, nEsc, nBig := le.Uint64(fr.buf), le.Uint64(fr.buf[8:]), le.Uint64(fr.buf[16:])
		switch {
		case nOps > maxFileOpsPerProc:
			return nil, fmt.Errorf("trace: p%d declares %d ops (limit %d)", p, nOps, maxFileOpsPerProc)
		case nEsc > nOps:
			return nil, fmt.Errorf("trace: p%d declares %d escape words, more than its %d ops", p, nEsc, nOps)
		case nBig > nEsc:
			return nil, fmt.Errorf("trace: p%d declares %d big gaps, more than its %d escape words", p, nBig, nEsc)
		}
		pt := &t.Procs[p]
		var err error
		if pt.ops, err = column(fr, nOps, 4, le.Uint32, "op column"); err != nil {
			return nil, err
		}
		if pt.esc, err = column(fr, nEsc, 8, le.Uint64, "escape column"); err != nil {
			return nil, err
		}
		if pt.bigGaps, err = column(fr, nBig, 4, le.Uint32, "big-gap column"); err != nil {
			return nil, err
		}
		if err := pt.check(); err != nil {
			return nil, fmt.Errorf("trace: p%d %w", p, err)
		}
	}
	if fr.remaining > 0 {
		return nil, fmt.Errorf("trace: %d bytes more than the counts declare", fr.remaining)
	}
	want := h.Sum(nil)
	got := fr.buf[:sha256.Size]
	if _, err := io.ReadFull(r, got); err != nil {
		return nil, fmt.Errorf("trace: truncated reading digest: %w", err)
	}
	if [sha256.Size]byte(want) != [sha256.Size]byte(got) {
		return nil, fmt.Errorf("trace: digest mismatch — file corrupt")
	}
	return t, nil
}

// check verifies what a Cursor assumes of columns read from outside: one
// escape word per op holding the gap marker, one big gap per escape word
// holding the escape value, each big gap one an escape word cannot hold,
// and every op replaying with a valid kind and an address inside the
// physical address space.
func (p *ProcTrace) check() error {
	markers, escaped := 0, 0
	for _, w := range p.ops {
		if w>>kindBits&gapMarker == gapMarker {
			markers++
		}
	}
	for _, e := range p.esc {
		if e>>kindBits&gapEscape == gapEscape {
			escaped++
		}
	}
	if markers != len(p.esc) {
		return fmt.Errorf("has %d escape words for %d ops holding the gap marker", len(p.esc), markers)
	}
	if escaped != len(p.bigGaps) {
		return fmt.Errorf("has %d big gaps for %d escape words holding the escape value", len(p.bigGaps), escaped)
	}
	for i, g := range p.bigGaps {
		if g < gapEscape {
			return fmt.Errorf("big gap %d is %d, out of range (minimum %d)", i, g, gapEscape)
		}
	}
	var batch [256]workload.Op
	c := Cursor{t: p}
	for n := c.Fill(batch[:]); n > 0; n = c.Fill(batch[:]) {
		for j, op := range batch[:n] {
			i := c.pos - n + j
			if op.Kind >= workload.NOpKinds {
				return fmt.Errorf("op %d: invalid op kind %d", i, op.Kind)
			}
			if uint64(op.Addr) > addr.PhysAddrMask {
				return fmt.Errorf("op %d: address %#x exceeds the %d-bit physical address space", i, uint64(op.Addr), addr.PhysAddrBits)
			}
		}
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
