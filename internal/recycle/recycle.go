// Package recycle hands large slices from one short-lived simulated
// machine to the next. A sweep builds many machines of a few shapes, each
// with the same tag arrays; recycling them keeps a finished machine's
// storage from becoming garbage that the next one's allocations wait on.
package recycle

import "sync"

// Pool keeps slices of T for reuse, keyed by length. The zero Pool is
// ready to use and safe for concurrent use. Idle slices sit in
// sync.Pools, which the garbage collector empties after two cycles, so a
// Pool pins no memory in a process that stops asking for it.
type Pool[T any] struct {
	mu    sync.Mutex
	byLen map[int]*sync.Pool // each holds *[]T of one length
}

// Get returns a zeroed slice of length n: one handed back by Put when a
// slice of that length is waiting, a new one otherwise.
func (p *Pool[T]) Get(n int) []T {
	sp := p.pool(n)
	for {
		switch v := sp.Get().(type) {
		case *[]T:
			clear(*v)
			return *v
		case nil:
			return make([]T, n)
		}
		// A placeholder Put left behind: look further.
	}
}

// placeholder is what Put hands a sync.Pool ahead of each slice.
type placeholder struct{}

// Put hands s back for a later Get of its length. The caller must not use
// s afterwards.
//
// A sync.Pool keeps the first value put on each processor (P) in a slot
// that only a Get on that P reaches; the rest go to a list any P's Get
// can take from. A released machine's bank is one slice, which would sit
// in that slot while a sweep worker on another P builds its machine with
// fresh storage. So Put hands over a placeholder first, which takes the
// slot if it is free, and the slice lands in the shared list.
func (p *Pool[T]) Put(s []T) {
	sp := p.pool(len(s))
	sp.Put(placeholder{})
	sp.Put(&s)
}

// pool returns the sync.Pool for slices of length n, creating it on
// first use.
func (p *Pool[T]) pool(n int) *sync.Pool {
	p.mu.Lock()
	defer p.mu.Unlock()
	sp := p.byLen[n]
	if sp == nil {
		if p.byLen == nil {
			p.byLen = make(map[int]*sync.Pool)
		}
		sp = new(sync.Pool)
		p.byLen[n] = sp
	}
	return sp
}
