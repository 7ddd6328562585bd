// Package trace is the compiled trace engine: it materialises a
// workload's per-processor operation streams exactly once into a compact,
// immutable encoding and replays them through batched cursors, so a
// figures sweep that simulates the same (benchmark, processors, ops,
// seed) trace under many machine configurations pays trace synthesis once
// instead of once per variant, and the simulator's hot path refills a
// small op buffer from a contiguous slab instead of making one interface
// call per operation.
//
// Encoding: one slab per processor, one 4-byte word per op,
//
//	delta<<11 | gap<<3 | kind
//
// holding the signed 21-bit address difference from the previous op of
// the same class (instruction fetches, or any data kind), an 8-bit
// instruction gap and the 3-bit op kind. An op whose gap is 255 or more,
// or whose address lies more than ±1 MiB from its class's previous one,
// stores the gap marker 255 instead; the op itself goes, in op order,
// into the processor's escape column as one 8-byte word,
//
//	addr<<24 | gap<<3 | kind
//
// and a gap too large for that word's 21-bit field goes on, again in op
// order, to a column of whole gaps. The paper benchmarks escape one to
// five ops in a hundred, so a slab costs a little over 4 bytes per op — a
// sixth of the 24-byte workload.Op — and replay is a shift, a mask and an
// add per op.
//
// Compilation drains the processors' streams concurrently, one column
// per worker. Traces carry a content hash, computed on demand from a
// decoding pass; the process-wide shared cache (Get) keys traces by their
// parameters, and the versioned on-disk format (WriteFile / ReadFile)
// seals files with its own digest.
package trace

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cgct/internal/addr"
	"cgct/internal/workload"
)

// Layout of one compiled op, delta<<deltaShift | gap<<kindBits | kind, and
// of one escape word, addr<<addrShift | gap<<kindBits | kind. The escape
// word's address field is the top addr.PhysAddrBits (40) bits.
const (
	kindBits = 3
	kindMask = 1<<kindBits - 1

	opGapBits  = 8
	deltaShift = kindBits + opGapBits
	// gapMarker is the largest gap field value of an op. An op holding it
	// is the processor's next escape word.
	gapMarker = 1<<opGapBits - 1
	// minDelta and maxDelta bound the signed delta field.
	minDelta = -1 << (32 - deltaShift - 1)
	maxDelta = 1<<(32-deltaShift-1) - 1

	gapBits   = 21
	addrShift = kindBits + gapBits
	// gapEscape is the largest gap field value of an escape word. A word
	// holding it takes its real gap from the processor's big-gap column.
	gapEscape = 1<<gapBits - 1
)

// class returns the delta chain an op kind belongs to: instruction fetches
// walk the code and data accesses the heap, so each is encoded relative to
// the previous op of its own class.
func class(k workload.OpKind) int {
	if k == workload.OpIFetch {
		return 1
	}
	return 0
}

// word packs op into an escape word, capping its gap at gapEscape.
func word(op workload.Op) uint64 {
	return uint64(op.Addr)<<addrShift | uint64(min(op.Gap, gapEscape))<<kindBits | uint64(op.Kind)
}

// ProcTrace is one processor's compiled op stream. It is immutable after
// compilation; any number of Cursors may replay it concurrently.
type ProcTrace struct {
	ops     []uint32 // one packed word per op
	esc     []uint64 // the ops holding gapMarker, as escape words, in op order
	bigGaps []uint32 // the gaps of escape words holding gapEscape, in op order
}

// Len returns the op count.
func (p *ProcTrace) Len() int { return len(p.ops) }

// Bytes returns the resident size of the three columns.
func (p *ProcTrace) Bytes() int64 {
	return int64(len(p.ops))*4 + int64(len(p.esc))*8 + int64(len(p.bigGaps))*4
}

// encoder appends ops to a ProcTrace under construction. It keeps each
// class's previous address, which a Cursor recomputes as it replays, so
// the finished ProcTrace holds no encoder state.
type encoder struct {
	pt   ProcTrace
	prev [2]uint64
}

// add appends op. An op no word can hold (an address beyond the physical
// address space, an unknown kind) is an error rather than a silently
// truncated field.
func (e *encoder) add(op workload.Op) error {
	a := uint64(op.Addr)
	if a > addr.PhysAddrMask {
		return fmt.Errorf("address %#x exceeds the %d-bit physical address space", a, addr.PhysAddrBits)
	}
	if op.Kind >= workload.NOpKinds {
		return fmt.Errorf("invalid op kind %d", op.Kind)
	}
	c := class(op.Kind)
	d := int64(a - e.prev[c])
	e.prev[c] = a
	if op.Gap < gapMarker && d >= minDelta && d <= maxDelta {
		e.pt.ops = append(e.pt.ops, uint32(d)<<deltaShift|op.Gap<<kindBits|uint32(op.Kind))
		return nil
	}
	e.pt.ops = append(e.pt.ops, gapMarker<<kindBits)
	e.pt.esc = append(e.pt.esc, word(op))
	if op.Gap >= gapEscape {
		e.pt.bigGaps = append(e.pt.bigGaps, op.Gap)
	}
	return nil
}

// Cursor replays one ProcTrace as a workload.Source. The zero Cursor is
// not usable; obtain one from ProcTrace.Cursor.
type Cursor struct {
	t    *ProcTrace
	pos  int       // next op index
	esc  int       // next escape-column index
	big  int       // next big-gap index
	prev [2]uint64 // each class's previous address
}

// Cursor returns a fresh replay cursor positioned at the first op.
func (p *ProcTrace) Cursor() *Cursor { return &Cursor{t: p} }

// Fill implements workload.Source: it decodes up to len(dst) ops and
// returns how many it wrote (0 once the trace is exhausted).
func (c *Cursor) Fill(dst []workload.Op) int {
	ops := c.t.ops[c.pos:]
	if len(ops) > len(dst) {
		ops = ops[:len(dst)]
	}
	dst = dst[:len(ops)]
	prev := c.prev
	for i, w := range ops {
		gap := w >> kindBits & gapMarker
		if gap == gapMarker {
			op := c.escape()
			prev[class(op.Kind)] = uint64(op.Addr)
			dst[i] = op
			continue
		}
		kind := workload.OpKind(w & kindMask)
		cl := class(kind)
		a := prev[cl] + uint64(int32(w)>>deltaShift)
		prev[cl] = a
		dst[i] = workload.Op{Kind: kind, Addr: addr.Addr(a), Gap: gap}
	}
	c.prev = prev
	c.pos += len(ops)
	return len(ops)
}

// escape decodes the next escape word.
func (c *Cursor) escape() workload.Op {
	w := c.t.esc[c.esc]
	c.esc++
	gap := uint32(w>>kindBits) & gapEscape
	if gap == gapEscape {
		gap = c.t.bigGaps[c.big]
		c.big++
	}
	return workload.Op{Kind: workload.OpKind(w & kindMask), Addr: addr.Addr(w >> addrShift), Gap: gap}
}

// Trace is a compiled workload: one immutable slab per processor. A
// Trace is shared freely across concurrent simulations; Workload hands
// out fresh cursors.
type Trace struct {
	Name  string
	Procs []ProcTrace
}

// Bytes returns the total resident size of the compiled columns.
func (t *Trace) Bytes() int64 {
	var n int64
	for i := range t.Procs {
		n += t.Procs[i].Bytes()
	}
	return n
}

// Ops returns the total op count across processors.
func (t *Trace) Ops() int64 {
	var n int64
	for i := range t.Procs {
		n += int64(t.Procs[i].Len())
	}
	return n
}

// Workload wraps the trace in a workload.Workload with fresh batched
// cursors, ready for sim.New. The trace itself is not consumed; Workload
// may be called any number of times.
func (t *Trace) Workload() workload.Workload {
	srcs := make([]workload.Source, len(t.Procs))
	for i := range t.Procs {
		srcs[i] = t.Procs[i].Cursor()
	}
	return workload.Workload{Name: t.Name, Sources: srcs}
}

// compileBatch is the generator drain granularity during compilation;
// ctxCheckBatches paces context checks so a cancelled caller aborts a
// large compile within ~64K ops. Generators finish the activity block
// they are in, so a stream overshoots its ops hint by up to a few hundred
// ops; compileSlack sizes the column for that, where growing it would
// leave a quarter of it unused.
const (
	compileBatch    = 1024
	ctxCheckBatches = 64
	compileSlack    = 512
)

type progressCtxKey struct{}

// WithProgress returns a context that makes FromWorkload report the
// number of ops encoded, batch by batch, to fn. Processors compile
// concurrently, so fn may be called from several goroutines at once.
// Liveness watchdogs hook this so a job compiling a large trace is
// distinguishable from a stalled one before its first simulation event.
func WithProgress(ctx context.Context, fn func(ops int)) context.Context {
	return context.WithValue(ctx, progressCtxKey{}, fn)
}

func progressFrom(ctx context.Context) func(ops int) {
	fn, _ := ctx.Value(progressCtxKey{}).(func(ops int))
	return fn
}

// Compile builds the named benchmark's workload and compiles it. The ops
// hint from p sizes the columns up front; ctx aborts a long compilation
// early.
func Compile(ctx context.Context, benchmark string, p workload.Params) (*Trace, error) {
	w, err := workload.Build(benchmark, p)
	if err != nil {
		return nil, err
	}
	hint := p.OpsPerProc
	if hint <= 0 {
		hint = workload.DefaultOpsPerProc
	}
	return FromWorkload(ctx, w, hint)
}

// FromWorkload drains a workload's op streams into a compiled trace
// (the workload's generators are consumed). opsHint sizes the per-
// processor columns; 0 means unknown.
//
// Processors drain concurrently on min(GOMAXPROCS, processors) workers,
// each filling only its own column, so the workload's streams must share
// no mutable state (see workload.Workload). When several processors
// fail, the error is the lowest-indexed one's, whatever the schedule.
func FromWorkload(ctx context.Context, w workload.Workload, opsHint int) (*Trace, error) {
	t := &Trace{Name: w.Name, Procs: make([]ProcTrace, w.Procs())}
	progress := progressFrom(ctx)
	errs := make([]error, len(t.Procs))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for n := min(runtime.GOMAXPROCS(0), len(t.Procs)); n > 0; n-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf [compileBatch]workload.Op
			for {
				i := int(next.Add(1)) - 1
				if i >= len(t.Procs) {
					return
				}
				t.Procs[i], errs[i] = drain(ctx, i, w.Source(i), opsHint, buf[:], progress)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// drain compiles processor i's op stream src, len(buf) ops at a time,
// checking ctx every ctxCheckBatches batches and reporting each batch to
// progress (nil for none). The columns grow in a local encoder: the
// workers' entries of Trace.Procs share cache lines, and writing a slice
// header there on every op would make the workers contend for them.
func drain(ctx context.Context, i int, src workload.Source, opsHint int, buf []workload.Op, progress func(ops int)) (ProcTrace, error) {
	e := encoder{pt: ProcTrace{ops: make([]uint32, 0, max(opsHint, 0)+compileSlack)}}
	for batch := 0; ; batch++ {
		if batch%ctxCheckBatches == 0 {
			if err := ctx.Err(); err != nil {
				return ProcTrace{}, err
			}
		}
		n := src.Fill(buf)
		if n == 0 {
			return e.pt, nil
		}
		for _, op := range buf[:n] {
			if err := e.add(op); err != nil {
				return ProcTrace{}, fmt.Errorf("trace: p%d[%d]: %w", i, e.pt.Len(), err)
			}
		}
		if progress != nil {
			progress(n)
		}
	}
}

// ContentHash returns the hex sha256 identity of the trace's ops
// (independent of the benchmark name). It decodes and hashes
// every op on each call, folding words through a fixed-size buffer
// so hashing stays cheap on multi-million-op traces. Each op is hashed as
// its escape word, followed by the processor's big gaps, so the identity
// does not depend on which ops the slab escapes.
func (t *Trace) ContentHash() string {
	h := sha256.New()
	buf := make([]byte, 0, 8192)
	room := func(n int) {
		if len(buf)+n > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	put64 := func(v uint64) {
		room(8)
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	var batch [256]workload.Op
	buf = append(buf, "cgct.trace.v2"...)
	put64(uint64(len(t.Procs)))
	for i := range t.Procs {
		pt := &t.Procs[i]
		put64(uint64(pt.Len()))
		c := Cursor{t: pt}
		for n := c.Fill(batch[:]); n > 0; n = c.Fill(batch[:]) {
			for _, op := range batch[:n] {
				put64(word(op))
			}
		}
		put64(uint64(len(pt.bigGaps)))
		for _, g := range pt.bigGaps {
			room(4)
			buf = binary.LittleEndian.AppendUint32(buf, g)
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// String summarises the trace for tooling.
func (t *Trace) String() string {
	perOp := 0.0
	if ops := t.Ops(); ops > 0 {
		perOp = float64(t.Bytes()) / float64(ops)
	}
	return fmt.Sprintf("%s: %d procs, %d ops, %d bytes compiled (%.2f B/op), hash %.12s",
		t.Name, len(t.Procs), t.Ops(), t.Bytes(), perOp, t.ContentHash())
}
