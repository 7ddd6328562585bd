// Package trace is the compiled trace engine: it materialises a
// workload's per-processor operation streams exactly once into a compact,
// immutable encoding and replays them through batched cursors, so a
// figures sweep that simulates the same (benchmark, processors, ops,
// seed) trace under many machine configurations pays trace synthesis once
// instead of once per variant, and the simulator's hot path refills a
// small op buffer from a contiguous slab instead of making one interface
// call per operation.
//
// Encoding: one slab per processor, one 8-byte word per op,
//
//	addr<<24 | gap<<3 | kind
//
// holding the 40-bit physical address, a 21-bit instruction gap and the
// 3-bit op kind — half the footprint of the equivalent []workload.Op, and
// a replay that is a shift and a mask per field. A gap too large for its
// field stores gapEscape instead; the real gap goes, in op order, into the
// processor's escape column. Generated workloads never reach it.
//
// Compilation drains the processors' streams concurrently, one column
// per worker. Traces carry a content hash over both columns, computed on
// demand; the process-wide shared cache (Get) keys traces by their
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

// Word layout of one compiled op: addr<<addrShift | gap<<kindBits | kind.
// The address field is the top addr.PhysAddrBits (40) bits.
const (
	kindBits  = 3
	gapBits   = 21
	addrShift = kindBits + gapBits
	kindMask  = 1<<kindBits - 1
	// gapEscape is the largest gap field value. A word holding it takes
	// its real gap from the processor's escape column.
	gapEscape = 1<<gapBits - 1
)

// ProcTrace is one processor's compiled op stream. It is immutable after
// compilation; any number of Cursors may replay it concurrently.
type ProcTrace struct {
	ops     []uint64 // one packed word per op
	bigGaps []uint32 // the gaps of words holding gapEscape, in op order
}

// Len returns the op count.
func (p *ProcTrace) Len() int { return len(p.ops) }

// Bytes returns the resident size of the two columns.
func (p *ProcTrace) Bytes() int64 {
	return int64(len(p.ops))*8 + int64(len(p.bigGaps))*4
}

// lowBits packs a kind and gap into a word's low bits, moving a gap too
// large for its field to the escape column.
func (p *ProcTrace) lowBits(kind uint64, gap uint32) uint64 {
	if gap >= gapEscape {
		p.bigGaps = append(p.bigGaps, gap)
		return gapEscape<<kindBits | kind
	}
	return uint64(gap)<<kindBits | kind
}

// add appends op to a ProcTrace under construction. An op the word cannot
// hold (an address beyond the physical address space, an unknown kind) is
// an error rather than a silently truncated field.
func (p *ProcTrace) add(op workload.Op) error {
	if uint64(op.Addr) > addr.PhysAddrMask {
		return fmt.Errorf("address %#x exceeds the %d-bit physical address space", uint64(op.Addr), addr.PhysAddrBits)
	}
	if op.Kind >= workload.NOpKinds {
		return fmt.Errorf("invalid op kind %d", op.Kind)
	}
	p.ops = append(p.ops, uint64(op.Addr)<<addrShift|p.lowBits(uint64(op.Kind), op.Gap))
	return nil
}

// Cursor replays one ProcTrace as a workload.Source. The zero Cursor is
// not usable; obtain one from ProcTrace.Cursor.
type Cursor struct {
	t   *ProcTrace
	pos int // next op index
	big int // next escape-column index
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
	for i, w := range ops {
		gap := uint32(w>>kindBits) & gapEscape
		if gap == gapEscape {
			gap = c.t.bigGaps[c.big]
			c.big++
		}
		dst[i] = workload.Op{
			Kind: workload.OpKind(w & kindMask),
			Addr: addr.Addr(w >> addrShift),
			Gap:  gap,
		}
	}
	c.pos += len(ops)
	return len(ops)
}

// Trace is a compiled workload: one immutable slab per processor plus the
// metadata the simulator needs (DMA target segments). A Trace is shared
// freely across concurrent simulations; Workload hands out fresh cursors.
type Trace struct {
	Name       string
	Procs      []ProcTrace
	DMATargets []addr.Segment
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
	return workload.Workload{Name: t.Name, Sources: srcs, DMATargets: t.DMATargets}
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
	t := &Trace{
		Name:       w.Name,
		Procs:      make([]ProcTrace, w.Procs()),
		DMATargets: w.DMATargets,
	}
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
// progress (nil for none). The column grows in a local ProcTrace: the
// workers' entries of Trace.Procs share cache lines, and writing a slice
// header there on every op would make the workers contend for them.
func drain(ctx context.Context, i int, src workload.Source, opsHint int, buf []workload.Op, progress func(ops int)) (ProcTrace, error) {
	pt := ProcTrace{ops: make([]uint64, 0, max(opsHint, 0)+compileSlack)}
	for batch := 0; ; batch++ {
		if batch%ctxCheckBatches == 0 {
			if err := ctx.Err(); err != nil {
				return ProcTrace{}, err
			}
		}
		n := src.Fill(buf)
		if n == 0 {
			return pt, nil
		}
		for _, op := range buf[:n] {
			if err := pt.add(op); err != nil {
				return ProcTrace{}, fmt.Errorf("trace: p%d[%d]: %w", i, pt.Len(), err)
			}
		}
		if progress != nil {
			progress(n)
		}
	}
}

// ContentHash returns the hex sha256 identity of the trace content
// (columns + DMA targets; independent of the benchmark name). It hashes
// every column on each call; words are folded through a fixed-size
// buffer so hashing stays cheap on multi-million-op traces.
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
	buf = append(buf, "cgct.trace.v2"...)
	put64(uint64(len(t.Procs)))
	for i := range t.Procs {
		pt := &t.Procs[i]
		put64(uint64(len(pt.ops)))
		for _, w := range pt.ops {
			put64(w)
		}
		put64(uint64(len(pt.bigGaps)))
		for _, g := range pt.bigGaps {
			room(4)
			buf = binary.LittleEndian.AppendUint32(buf, g)
		}
	}
	put64(uint64(len(t.DMATargets)))
	for _, s := range t.DMATargets {
		put64(uint64(s.Base))
		put64(s.Size)
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// String summarises the trace for tooling.
func (t *Trace) String() string {
	return fmt.Sprintf("%s: %d procs, %d ops, %d bytes compiled, hash %.12s",
		t.Name, len(t.Procs), t.Ops(), t.Bytes(), t.ContentHash())
}
