// Package event implements the discrete-event engine of the simulator: a
// cycle clock and a time-ordered event queue with deterministic FIFO
// tie-breaking.
//
// All times are CPU cycles. The queue is single-threaded by design — the
// whole timing simulation is deterministic and runs on one goroutine; the
// benchmark harness parallelises across *runs*, not within a run.
//
// # Implementation
//
// The queue is allocation-free in steady state. Events live in a pooled
// slot array recycled through a free list, and each is dispatched to a
// Handler: an interface receiving a small op-code and payload, so no event
// captures a closure.
//
// Ordering uses a hierarchical timing wheel: a ring of wheelSize
// one-cycle buckets covers the near-future window [now, now+wheelSize),
// with a two-level bitmap (one summary word over 64 occupancy words)
// locating the next non-empty bucket in a few bit scans. Events beyond
// the window wait in a binary heap ordered by (time, sequence) and
// migrate into the wheel as the clock advances — always before any new
// same-cycle event can be scheduled, so a bucket's FIFO chain is in
// global sequence order and the execution order is exactly the
// (time, sequence) order of the original heap-only implementation.
package event

import "math/bits"

// Cycle is a point in simulated time, in CPU cycles.
type Cycle uint64

// Handler receives pooled events. The (op, u32, u64) triple is opaque to
// the queue; the scheduler and the handler agree on its meaning. Scheduling
// onto a Handler allocates nothing once the queue's pool is warm.
type Handler interface {
	HandleEvent(now Cycle, op uint8, u32 uint32, u64 uint64)
}

const (
	wheelBits = 12
	// wheelSize is the near-future window covered by the timing wheel, in
	// cycles. Fabric latencies are tens-to-hundreds of cycles, so in
	// practice nearly every event schedules inside the window.
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// slot is one pooled event record.
type slot struct {
	at   Cycle
	seq  uint64
	u64  uint64
	h    Handler
	next int32 // bucket FIFO chain / free-list link (0 = none)
	u32  uint32
	op   uint8
}

// Queue is a time-ordered event queue. The zero value is ready to use.
type Queue struct {
	pool []slot // slot 0 is a sentinel so index 0 can mean "none"
	free int32  // free-list head

	// Timing wheel: bucket i chains the events at the unique in-window
	// cycle t with t&wheelMask == i. occupied/summary form a two-level
	// bitmap over the buckets.
	head       [wheelSize]int32
	tail       [wheelSize]int32
	occupied   [wheelSize / 64]uint64
	summary    uint64
	wheelCount int

	// Far-future events (at >= now+wheelSize), a binary heap of pool
	// indices ordered by (at, seq).
	heap []int32

	seq uint64
	now Cycle
}

// Now returns the current simulated time: the time of the last event run.
func (q *Queue) Now() Cycle { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.wheelCount + len(q.heap) }

// alloc takes a slot from the free list, growing the pool if needed.
func (q *Queue) alloc() int32 {
	if q.free != 0 {
		idx := q.free
		q.free = q.pool[idx].next
		return idx
	}
	if q.pool == nil {
		q.pool = make([]slot, 1, 256) // slot 0 is the sentinel
	}
	q.pool = append(q.pool, slot{})
	return int32(len(q.pool) - 1)
}

// release returns a slot to the free list, dropping its handler so the
// pool does not retain it.
func (q *Queue) release(idx int32) {
	s := &q.pool[idx]
	s.h = nil
	s.next = q.free
	q.free = idx
}

// insert places an allocated, filled slot into the wheel or the heap.
func (q *Queue) insert(idx int32) {
	s := &q.pool[idx]
	if s.at < q.now+wheelSize {
		b := int(uint64(s.at) & wheelMask)
		s.next = 0
		if t := q.tail[b]; t != 0 {
			q.pool[t].next = idx
		} else {
			q.head[b] = idx
			q.occupied[b>>6] |= 1 << uint(b&63)
			q.summary |= 1 << uint(b>>6)
		}
		q.tail[b] = idx
		q.wheelCount++
		return
	}
	q.heap = append(q.heap, idx)
	q.up(len(q.heap) - 1)
}

// Schedule queues a pooled event for h at absolute cycle at. Scheduling in
// the past schedules at the current time instead (the event still runs
// strictly after the current event completes, preserving run-to-completion
// semantics). The (op, u32, u64) payload is passed through to h verbatim.
func (q *Queue) Schedule(at Cycle, h Handler, op uint8, u32 uint32, u64 uint64) {
	if at < q.now {
		at = q.now
	}
	q.seq++
	idx := q.alloc()
	s := &q.pool[idx]
	s.at = at
	s.seq = q.seq
	s.h = h
	s.op = op
	s.u32 = u32
	s.u64 = u64
	q.insert(idx)
}

// ScheduleAfter is Schedule at delta cycles from now.
func (q *Queue) ScheduleAfter(delta Cycle, h Handler, op uint8, u32 uint32, u64 uint64) {
	q.Schedule(q.now+delta, h, op, u32, u64)
}

// nextBucket returns the first non-empty bucket at or (circularly) after
// the cursor position now&wheelMask. Must only be called with
// wheelCount > 0.
func (q *Queue) nextBucket() int {
	start := int(uint64(q.now) & wheelMask)
	w := start >> 6
	b := uint(start & 63)
	if m := q.occupied[w] &^ (1<<b - 1); m != 0 {
		return w<<6 | bits.TrailingZeros64(m)
	}
	if hi := q.summary &^ (1<<uint(w+1) - 1); hi != 0 {
		w2 := bits.TrailingZeros64(hi)
		return w2<<6 | bits.TrailingZeros64(q.occupied[w2])
	}
	lo := q.summary & (1<<uint(w+1) - 1)
	w2 := bits.TrailingZeros64(lo)
	m := q.occupied[w2]
	if w2 == w {
		m &= 1<<b - 1
	}
	return w2<<6 | bits.TrailingZeros64(m)
}

// migrate moves heap events whose time has entered the wheel window into
// their buckets. Called whenever now advances; because it runs before the
// event at the new now executes, no same-cycle event can be scheduled
// directly into the wheel ahead of an older heap event, preserving the
// global (time, sequence) order. Migrated events land in empty buckets (a
// bucket maps to one in-window cycle, and their cycle just entered the
// window), in heap-pop order — i.e. sequence order.
func (q *Queue) migrate() {
	for len(q.heap) > 0 && q.pool[q.heap[0]].at < q.now+wheelSize {
		idx := q.heap[0]
		n := len(q.heap) - 1
		q.heap[0] = q.heap[n]
		q.heap = q.heap[:n]
		if n > 0 {
			q.down(0)
		}
		q.insert(idx)
	}
}

// pop removes and returns the earliest pending event, advancing the clock
// to its time, or 0 if the queue is empty. The returned slot stays valid
// until the next alloc; callers copy what they need and release it.
func (q *Queue) pop() int32 {
	var idx int32
	if q.wheelCount > 0 {
		// The wheel covers [now, now+wheelSize); the heap only holds later
		// events, so a non-empty wheel always contains the minimum.
		b := q.nextBucket()
		idx = q.head[b]
		if q.head[b] = q.pool[idx].next; q.head[b] == 0 {
			q.tail[b] = 0
			if q.occupied[b>>6] &^= 1 << uint(b&63); q.occupied[b>>6] == 0 {
				q.summary &^= 1 << uint(b>>6)
			}
		}
		q.wheelCount--
	} else {
		if len(q.heap) == 0 {
			return 0
		}
		idx = q.heap[0]
		n := len(q.heap) - 1
		q.heap[0] = q.heap[n]
		q.heap = q.heap[:n]
		if n > 0 {
			q.down(0)
		}
	}
	q.now = q.pool[idx].at
	q.migrate()
	return idx
}

// Step runs the earliest pending event, advancing the clock to its time.
// It returns false if the queue is empty. The event's slot is recycled
// before its handler runs, so the handler can schedule into it.
func (q *Queue) Step() bool {
	idx := q.pop()
	if idx == 0 {
		return false
	}
	s := &q.pool[idx]
	h, op, u32, u64 := s.h, s.op, s.u32, s.u64
	q.release(idx)
	h.HandleEvent(q.now, op, u32, u64)
	return true
}

// less orders heap entries by time then by insertion sequence, giving
// deterministic FIFO behaviour for events scheduled at the same cycle.
func (q *Queue) less(i, j int) bool {
	a, b := &q.pool[q.heap[i]], &q.pool[q.heap[j]]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q.less(l, small) {
			small = l
		}
		if r < n && q.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		q.heap[i], q.heap[small] = q.heap[small], q.heap[i]
		i = small
	}
}
