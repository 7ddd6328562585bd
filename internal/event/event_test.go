package event

import (
	"testing"
)

func TestOrdering(t *testing.T) {
	var q Queue
	var got []int
	q.At(30, func(Cycle) { got = append(got, 3) })
	q.At(10, func(Cycle) { got = append(got, 1) })
	q.At(20, func(Cycle) { got = append(got, 2) })
	q.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if q.Now() != 30 {
		t.Errorf("Now = %d, want 30", q.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		q.At(5, func(Cycle) { got = append(got, i) })
	}
	q.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	var q Queue
	var at Cycle
	q.At(100, func(now Cycle) {
		q.At(50, func(now2 Cycle) { at = now2 }) // in the past
	})
	q.Run()
	if at != 100 {
		t.Errorf("past event ran at %d, want clamped to 100", at)
	}
}

func TestAfter(t *testing.T) {
	var q Queue
	var at Cycle
	q.At(10, func(now Cycle) {
		q.After(5, func(now2 Cycle) { at = now2 })
	})
	q.Run()
	if at != 15 {
		t.Errorf("After event ran at %d, want 15", at)
	}
}

func TestRunUntil(t *testing.T) {
	var q Queue
	count := 0
	for _, c := range []Cycle{5, 10, 15, 20} {
		q.At(c, func(Cycle) { count++ })
	}
	n := q.RunUntil(12)
	if n != 2 || count != 2 {
		t.Fatalf("RunUntil ran %d events (count %d), want 2", n, count)
	}
	if q.Len() != 2 {
		t.Errorf("pending = %d, want 2", q.Len())
	}
	// Time does not jump past pending events.
	if q.Now() != 10 {
		t.Errorf("Now = %d, want 10", q.Now())
	}
	q.Run()
	if count != 4 {
		t.Errorf("final count = %d", count)
	}
}

func TestRunUntilEmptyAdvancesClock(t *testing.T) {
	var q Queue
	q.RunUntil(500)
	if q.Now() != 500 {
		t.Errorf("Now = %d, want 500 on empty queue", q.Now())
	}
}

func TestCascade(t *testing.T) {
	// Events scheduling events: a chain of 1000.
	var q Queue
	count := 0
	var chain func(now Cycle)
	chain = func(now Cycle) {
		count++
		if count < 1000 {
			q.After(1, chain)
		}
	}
	q.At(0, chain)
	q.Run()
	if count != 1000 {
		t.Errorf("chain ran %d times", count)
	}
	if q.Now() != 999 {
		t.Errorf("Now = %d, want 999", q.Now())
	}
}

func TestInterleavedHeapStress(t *testing.T) {
	// Pseudo-random schedule exercising heap up/down paths.
	var q Queue
	seed := uint64(12345)
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	var last Cycle
	ok := true
	for i := 0; i < 500; i++ {
		q.At(Cycle(next()%10000), func(now Cycle) {
			if now < last {
				ok = false
			}
			last = now
			if now%3 == 0 {
				q.After(Cycle(next()%100), func(Cycle) {})
			}
		})
	}
	q.Run()
	if !ok {
		t.Error("events ran out of time order")
	}
}

// --- Property test: the wheel+heap queue against a reference scheduler ---

// refQueue is a brutally simple reference scheduler: a flat slice scanned
// for the (time, sequence) minimum on every step. It has no wheel, no
// migration and no pooling — anything the real queue executes must match
// its order exactly.
type refQueue struct {
	events []refEvent
	seq    uint64
	now    Cycle
}

type refEvent struct {
	at  Cycle
	seq uint64
	id  int
}

func (r *refQueue) schedule(at Cycle, id int) {
	if at < r.now {
		at = r.now
	}
	r.seq++
	r.events = append(r.events, refEvent{at, r.seq, id})
}

func (r *refQueue) step() (id int, at Cycle, ok bool) {
	if len(r.events) == 0 {
		return 0, 0, false
	}
	min := 0
	for i := 1; i < len(r.events); i++ {
		e, m := r.events[i], r.events[min]
		if e.at < m.at || (e.at == m.at && e.seq < m.seq) {
			min = i
		}
	}
	e := r.events[min]
	r.events = append(r.events[:min], r.events[min+1:]...)
	r.now = e.at
	return e.id, e.at, true
}

// scenario deterministically derives the dynamic behaviour of a run — how
// many children each executed event spawns and at what deltas — from a
// seed, so the real queue and the reference can be driven identically.
type scenario struct {
	state  uint64
	nextID int
	maxID  int
}

func (s *scenario) next() uint64 {
	s.state ^= s.state << 13
	s.state ^= s.state >> 7
	s.state ^= s.state << 17
	return s.state
}

type spawnSpec struct {
	delta Cycle
	id    int
}

// spawn returns the children the event being executed schedules: deltas
// straddle the wheel window boundary so in-window inserts, heap inserts and
// heap→wheel migration all happen, including the delta==0 same-cycle case.
func (s *scenario) spawn() []spawnSpec {
	if s.nextID >= s.maxID {
		return nil
	}
	n := int(s.next() % 3)
	specs := make([]spawnSpec, 0, n)
	for i := 0; i < n; i++ {
		var d Cycle
		if s.next()%4 == 0 {
			d = Cycle(s.next() % (20 * wheelSize)) // far future: heap, then migration
		} else {
			d = Cycle(s.next() % wheelSize) // near future: direct wheel insert
		}
		specs = append(specs, spawnSpec{d, s.nextID})
		s.nextID++
	}
	return specs
}

type logEntry struct {
	id int
	at Cycle
}

type scriptedHandler struct {
	q   *Queue
	sc  *scenario
	log []logEntry
}

func (h *scriptedHandler) HandleEvent(now Cycle, _ uint8, _ uint32, u64 uint64) {
	h.log = append(h.log, logEntry{int(u64), now})
	for _, sp := range h.sc.spawn() {
		h.q.Schedule(now+sp.delta, h, 0, 0, uint64(sp.id))
	}
}

// runScenario drives one seeded random schedule through q and through the
// reference, returning both execution logs. Every third initial event goes
// through the legacy closure path (At) to pin the shared sequence counter
// across both scheduling APIs.
func runScenario(q *Queue, seed uint64, initial, maxEvents int) (got, want []logEntry) {
	real := &scenario{state: seed, nextID: 0, maxID: maxEvents}
	h := &scriptedHandler{q: q, sc: real}
	for i := 0; i < initial; i++ {
		at := Cycle(real.next() % (5 * wheelSize))
		id := real.nextID
		real.nextID++
		if i%3 == 0 {
			id := id
			q.At(at, func(now Cycle) { h.HandleEvent(now, 0, 0, uint64(id)) })
		} else {
			q.Schedule(at, h, 0, 0, uint64(id))
		}
	}
	q.Run()

	ref := &scenario{state: seed, nextID: 0, maxID: maxEvents}
	var r refQueue
	for i := 0; i < initial; i++ {
		at := Cycle(ref.next() % (5 * wheelSize))
		r.schedule(at, ref.nextID)
		ref.nextID++
	}
	for {
		id, at, ok := r.step()
		if !ok {
			break
		}
		want = append(want, logEntry{id, at})
		for _, sp := range ref.spawn() {
			r.schedule(at+sp.delta, sp.id)
		}
	}
	return h.log, want
}

func TestQueueMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 42, 0xdecafbad, 1 << 40} {
		var q Queue
		got, want := runScenario(&q, seed, 200, 3000)
		if len(got) != len(want) {
			t.Fatalf("seed %d: executed %d events, reference executed %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d = %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
		if q.Len() != 0 {
			t.Errorf("seed %d: queue not drained, %d left", seed, q.Len())
		}
	}
}

// countHandler counts the events dispatched to it.
type countHandler struct{ n int }

func (h *countHandler) HandleEvent(Cycle, uint8, uint32, uint64) { h.n++ }

// TestScheduleDispatchDoesNotAllocate gates the package's steady-state
// claim: once the slot pool is warm, scheduling onto a Handler, near
// (timing wheel) and far (heap), and dispatching allocates nothing. Each
// run schedules and dispatches 64 events, because AllocsPerRun rounds the
// per-run average down.
func TestScheduleDispatchDoesNotAllocate(t *testing.T) {
	var q Queue
	h := &countHandler{}
	batch := func() {
		for i := Cycle(0); i < 16; i++ {
			q.Schedule(q.Now()+i, h, 0, 0, 0)
			q.Schedule(q.Now()+wheelSize+97*i, h, 0, 0, 0)
			q.ScheduleAfter(3*i, h, 0, 0, 0)
			q.ScheduleAfter(2*wheelSize+i, h, 0, 0, 0)
		}
		for i := 0; i < 32; i++ {
			q.Step()
		}
		q.RunUntil(q.Now() + 3*wheelSize)
	}
	batch() // grows the slot pool and the heap to their steady size
	slots := len(q.pool)
	if n := testing.AllocsPerRun(100, batch); n != 0 {
		t.Errorf("64 schedules and dispatches allocate %v times", n)
	}
	// A slot that is not recycled costs an allocation only when the pool
	// regrows, which the per-run average rounds away.
	if len(q.pool) != slots {
		t.Errorf("slot pool grew from %d to %d", slots, len(q.pool))
	}
	if q.Len() != 0 || h.n != 102*64 {
		t.Fatalf("dispatched %d events with %d pending, want %d and 0", h.n, q.Len(), 102*64)
	}
}

// BenchmarkQueueScheduleDispatch measures one schedule plus one dispatch
// on a queue holding 1024 pending events, one in sixteen of them beyond
// the wheel window.
func BenchmarkQueueScheduleDispatch(b *testing.B) {
	var q Queue
	h := &countHandler{}
	delta := func(i int) Cycle {
		if i%16 == 0 {
			return wheelSize + Cycle(i%251)
		}
		return Cycle(i % 251)
	}
	for i := 0; i < 1024; i++ {
		q.ScheduleAfter(delta(i), h, 0, 0, 0)
	}
	for i := 0; i < 4096; i++ { // lets the heap reach its steady size
		q.Step()
		q.ScheduleAfter(delta(i), h, 0, 0, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Step()
		q.ScheduleAfter(delta(i), h, 0, 0, 0)
	}
}
