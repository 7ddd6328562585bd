// Package metrics is the repo's measurement substrate: a small, lock-free
// metrics registry (atomic counters, gauges, and fixed-bucket histograms)
// with Prometheus text-format exposition. The job server, the result and
// compiled-trace caches, and the simulator's progress path all register
// into it, so every operational number the service reports flows through
// one subsystem — mirroring the paper's counter-first evaluation style
// (Figures 2/8/10 are all counter plumbing).
//
// Design constraints:
//
//   - Updates are wait-free on the hot path: counters and gauges are a
//     single atomic add; a histogram observation is one binary search plus
//     two atomic adds and a CAS loop on the float sum.
//   - Registration is rare and mutex-guarded; exposition snapshots the
//     instrument list under a read lock and then reads atomics.
//   - Point-in-time values owned by other subsystems (queue depth, cache
//     residency) are exposed through CounterFunc/GaugeFunc callbacks, so
//     the registry never caches a stale copy of someone else's state.
package metrics

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one constant key=value pair attached to an instrument. Two
// instruments may share a metric name if their label sets differ (e.g.
// jobs{state="queued"} and jobs{state="done"}).
type Label struct {
	Key, Value string
}

var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that may go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets (upper bounds,
// ascending) plus an implicit +Inf bucket, and tracks the running sum.
// Buckets are fixed at construction: no allocation, no resizing, no lock.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; equal values belong to the
	// bucket (Prometheus buckets are "le", less-or-equal).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// kind is the Prometheus metric type of an instrument.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// instrument is one registered metric series.
type instrument struct {
	name   string
	help   string
	kind   kind
	labels []Label

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // CounterFunc / GaugeFunc
}

// Registry holds registered instruments. The zero value is not usable;
// construct with NewRegistry. Each Manager (and test) owns its own
// registry, so process-global state registers via callbacks without
// duplicate-registration conflicts.
type Registry struct {
	mu    sync.RWMutex
	inst  []*instrument
	index map[string]struct{} // name + canonical label signature
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]struct{})}
}

// register validates and inserts; duplicate (name, labels) or malformed
// names panic — registration is programmer-controlled setup code, exactly
// like prometheus.MustRegister.
func (r *Registry) register(in *instrument) {
	if !nameRE.MatchString(in.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", in.name))
	}
	for _, l := range in.labels {
		if !labelRE.MatchString(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l.Key, in.name))
		}
	}
	sig := in.name + renderLabels(in.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.index[sig]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %s", sig))
	}
	for _, prev := range r.inst {
		if prev.name == in.name && prev.kind != in.kind {
			panic(fmt.Sprintf("metrics: %q registered as both %s and %s", in.name, prev.kind, in.kind))
		}
	}
	r.index[sig] = struct{}{}
	r.inst = append(r.inst, in)
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(&instrument{name: name, help: help, kind: kindCounter, labels: labels, counter: c})
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(&instrument{name: name, help: help, kind: kindGauge, labels: labels, gauge: g})
	return g
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — for monotonic counts owned by another subsystem.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&instrument{name: name, help: help, kind: kindCounter, labels: labels, fn: fn})
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time — for point-in-time state owned by another subsystem.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&instrument{name: name, help: help, kind: kindGauge, labels: labels, fn: fn})
}

// Histogram registers and returns a histogram over the given ascending
// bucket upper bounds (+Inf is implicit and must not be included).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one bucket", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not ascending", name))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
	r.register(&instrument{name: name, help: help, kind: kindHistogram, labels: labels, hist: h})
	return h
}

// sorted returns the instruments sorted by (name, label signature) for
// deterministic exposition, grouped so each family renders contiguously.
func (r *Registry) sorted() []*instrument {
	r.mu.RLock()
	out := append([]*instrument(nil), r.inst...)
	r.mu.RUnlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return renderLabels(out[i].labels) < renderLabels(out[j].labels)
	})
	return out
}
