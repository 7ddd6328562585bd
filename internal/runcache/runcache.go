// Package runcache is the content-addressed cache behind the HTTP job
// server's results and the process-wide compiled-trace cache: singleflight
// deduplication (N concurrent requests for the same key cost one
// computation) and LRU bounds on resident entries and bytes.
//
// Keys are opaque strings; callers derive them from a canonical encoding
// of everything that determines the result (machine config, workload,
// seed — see config.Hash). Errors are never cached: a failed computation
// is forgotten so a later request retries it.
package runcache

import (
	"container/list"
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"cgct/internal/metrics"
)

// PanicError is the error a panicking compute function is converted to: the
// leader's panic must not take down followers waiting on the same key, so
// Do recovers it, releases every waiter with this error, and forgets the
// entry (a later Do for the key becomes a fresh leader).
type PanicError struct {
	Value string // the panic value, rendered
	Stack string // truncated goroutine stack at the panic site
}

// Error implements error.
func (e *PanicError) Error() string { return "panic: " + e.Value }

// maxPanicStack bounds the stack captured into a PanicError so a deep
// panic cannot bloat job-status payloads.
const maxPanicStack = 4 << 10

// NewPanicError renders a recovered panic value (with a bounded stack) —
// shared by Do and by callers that recover panics at other boundaries and
// want the same wire shape.
func NewPanicError(v any) *PanicError {
	stack := debug.Stack()
	if len(stack) > maxPanicStack {
		stack = stack[:maxPanicStack]
	}
	return &PanicError{Value: fmt.Sprint(v), Stack: string(stack)}
}

// entry tracks one key, either in flight (elem == nil, done open) or
// resident (elem != nil, done closed).
type entry[V any] struct {
	done   chan struct{}
	val    V
	err    error
	elem   *list.Element
	weight int64 // resident size per the cache's weigher (0 without one)
}

// Cache is a singleflight, LRU-bounded result cache. The zero value is not
// usable; construct with New.
type Cache[V any] struct {
	mu      sync.Mutex
	max     int // max resident entries; <= 0 means unbounded
	entries map[string]*entry[V]
	lru     *list.List // of string keys; front = most recently used

	weigher  func(V) int64 // nil = no byte accounting
	maxBytes int64         // evict LRU while resident bytes exceed; <= 0 off
	bytes    int64         // resident bytes per weigher

	hits, misses, evictions uint64
}

// Stats is a point-in-time snapshot of cache behaviour. Hits counts both
// resident-entry hits and singleflight joins (requests that waited on an
// in-flight computation instead of starting their own).
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
	InFlight  int
	// Bytes is the resident size of completed entries per the cache's
	// weigher; always 0 when no weigher is configured.
	Bytes int64
}

// New builds a cache holding at most maxEntries completed results
// (<= 0: unbounded).
func New[V any](maxEntries int) *Cache[V] {
	return &Cache[V]{
		max:     maxEntries,
		entries: make(map[string]*entry[V]),
		lru:     list.New(),
	}
}

// SetWeigher configures byte accounting: fn reports the resident size of
// a value when it completes, the total appears in Stats.Bytes, and — when
// maxBytes > 0 — LRU entries are additionally evicted while the resident
// total exceeds it (the most recently inserted entry is never evicted, so
// a single oversized value still caches). Call before the cache is used.
func (c *Cache[V]) SetWeigher(maxBytes int64, fn func(V) int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.weigher = fn
	c.maxBytes = maxBytes
}

// Do returns the cached value for key, joins an in-flight computation for
// it, or — as the singleflight leader — runs fn to produce it. The leader
// runs fn with the leader's ctx, unless that ctx is already done; a
// follower whose ctx is cancelled while waiting returns ctx.Err() without
// disturbing the leader. fn's error is returned to the leader and every
// current follower, then forgotten. A panic in fn is contained: it is
// converted to a *PanicError delivered the same way (never re-panicked,
// never cached), so one poisoned computation cannot wedge later requests.
func (c *Cache[V]) Do(ctx context.Context, key string, fn func(ctx context.Context) (V, error)) (V, error) {
	var zero V
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil { // resident
			c.hits++
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			return e.val, nil
		}
		// In flight: join the leader.
		c.hits++
		c.mu.Unlock()
		select {
		case <-e.done:
			return e.val, e.err
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
	e := &entry[V]{done: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	finish := func(val V, err error) (V, error) {
		c.mu.Lock()
		e.val, e.err = val, err
		if err == nil {
			e.elem = c.lru.PushFront(key)
			if c.weigher != nil {
				e.weight = c.weigher(val)
				c.bytes += e.weight
			}
			c.evictLocked()
		} else {
			delete(c.entries, key) // errors are not cached
		}
		c.mu.Unlock()
		close(e.done)
		return val, err
	}

	if err := ctx.Err(); err != nil {
		return finish(zero, err)
	}
	val, err := protect(ctx, fn)
	return finish(val, err)
}

// evictLocked drops LRU entries while either bound (entry count, resident
// bytes) is exceeded, never evicting the most recent entry. Callers hold
// c.mu.
func (c *Cache[V]) evictLocked() {
	for c.lru.Len() > 1 {
		over := (c.max > 0 && c.lru.Len() > c.max) ||
			(c.maxBytes > 0 && c.bytes > c.maxBytes)
		if !over {
			return
		}
		back := c.lru.Back()
		key := back.Value.(string)
		if be, ok := c.entries[key]; ok {
			c.bytes -= be.weight
		}
		delete(c.entries, key)
		c.lru.Remove(back)
		c.evictions++
	}
}

// protect runs fn, converting a panic into a *PanicError so the caller
// always regains control and can release singleflight followers.
func protect[V any](ctx context.Context, fn func(ctx context.Context) (V, error)) (val V, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = NewPanicError(r)
		}
	}()
	return fn(ctx)
}

// Get returns the resident value for key, counting a hit and refreshing
// its LRU position exactly as a Do served from residency would. It never
// joins an in-flight computation or starts one: ok is false unless the
// key is resident, and then nothing is counted.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.elem != nil {
		c.hits++
		c.lru.MoveToFront(e.elem)
		return e.val, true
	}
	var zero V
	return zero, false
}

// Contains reports whether key is resident or in flight — i.e. whether a
// Do for it right now would be served without a fresh computation.
func (c *Cache[V]) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Peek returns the resident value for key without joining an in-flight
// computation, starting one, or touching the hit/miss counters or LRU
// order. The cluster's peer-result endpoint uses it: serving a sibling
// peer must never perturb the local cache's behaviour.
func (c *Cache[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.elem != nil {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Wait returns the value for key if it is resident, or — when a
// computation for it is in flight — blocks until that computation
// finishes (or ctx expires) and returns its outcome. Unlike Do, Wait
// never becomes a leader: ok is false when the cache holds nothing for
// the key. This is what makes the cluster's singleflight fleet-wide: a
// peer fetch parks on the owner's in-flight run instead of duplicating
// it, without ever triggering a computation on the owner's behalf.
func (c *Cache[V]) Wait(ctx context.Context, key string) (V, bool, error) {
	var zero V
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return zero, false, nil
	}
	if e.elem != nil { // resident
		c.hits++
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		return e.val, true, nil
	}
	c.hits++ // joining an in-flight computation counts as a hit, as in Do
	c.mu.Unlock()
	select {
	case <-e.done:
		return e.val, true, e.err
	case <-ctx.Done():
		return zero, true, ctx.Err()
	}
}

// RegisterMetrics registers the cache's behaviour into reg under the
// given metric-name prefix (e.g. "cgct_result_cache"): hit/miss/eviction
// counters and residency gauges, all read live from Stats at scrape time.
func (c *Cache[V]) RegisterMetrics(reg *metrics.Registry, prefix string, labels ...metrics.Label) {
	reg.CounterFunc(prefix+"_hits_total", "cache hits, including singleflight joins",
		func() float64 { return float64(c.Stats().Hits) }, labels...)
	reg.CounterFunc(prefix+"_misses_total", "cache misses (fresh computations started)",
		func() float64 { return float64(c.Stats().Misses) }, labels...)
	reg.CounterFunc(prefix+"_evictions_total", "entries evicted by the LRU bounds",
		func() float64 { return float64(c.Stats().Evictions) }, labels...)
	reg.GaugeFunc(prefix+"_entries", "resident completed entries",
		func() float64 { return float64(c.Stats().Entries) }, labels...)
	reg.GaugeFunc(prefix+"_in_flight", "computations currently in flight",
		func() float64 { return float64(c.Stats().InFlight) }, labels...)
	reg.GaugeFunc(prefix+"_bytes", "resident bytes per the cache's weigher",
		func() float64 { return float64(c.Stats().Bytes) }, labels...)
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.lru.Len(),
		InFlight:  len(c.entries) - c.lru.Len(),
		Bytes:     c.bytes,
	}
}

// Len returns the number of resident (completed) entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
