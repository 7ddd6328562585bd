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
	if sp, ok := p.pool(n).Get().(*[]T); ok {
		s := *sp
		clear(s)
		return s
	}
	return make([]T, n)
}

// Put hands s back for a later Get of its length. The caller must not use
// s afterwards.
func (p *Pool[T]) Put(s []T) {
	p.pool(len(s)).Put(&s)
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
