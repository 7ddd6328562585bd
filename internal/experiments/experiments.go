// Package experiments regenerates every table and figure of the paper's
// evaluation. Each Figure*/Table* function runs the required simulations
// (in parallel across independent runs) and returns printable rows; the
// cmd/cgctexperiments binary and the repository benchmarks drive them.
//
// The harness is built on the public cgct API, exercising the library the
// way a downstream user would.
package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"

	"cgct"
	"cgct/internal/runcache"
)

// Params tunes experiment cost. Zero values select the defaults used for
// EXPERIMENTS.md (400K ops per processor, 3 seeds).
type Params struct {
	OpsPerProc int
	Seeds      []uint64
	Benchmarks []string
	Parallel   int // concurrent simulations (default: GOMAXPROCS)
}

func (p Params) withDefaults() Params {
	if p.OpsPerProc == 0 {
		p.OpsPerProc = 400_000
	}
	if len(p.Seeds) == 0 {
		p.Seeds = []uint64{1, 2, 3}
	}
	if len(p.Benchmarks) == 0 {
		p.Benchmarks = cgct.PaperBenchmarks()
	}
	if p.Parallel <= 0 {
		p.Parallel = runtime.GOMAXPROCS(0)
	}
	return p
}

// runKey identifies one simulation in the result cache.
type runKey struct {
	bench   string
	cgctOn  bool
	region  uint64
	rcaSets uint64
	seed    uint64
}

// String renders the canonical cache key.
func (k runKey) String() string {
	return fmt.Sprintf("%s|cgct=%t|region=%d|sets=%d|seed=%d", k.bench, k.cgctOn, k.region, k.rcaSets, k.seed)
}

// runner executes and caches simulation runs. The cache is singleflight:
// N concurrent get() calls on the same key cost exactly one simulation
// (previously both checked the map, missed, and ran the full simulation
// twice).
type runner struct {
	p     Params
	cache *runcache.Cache[*cgct.Result]
	run   func(k runKey) (*cgct.Result, error) // swappable in tests
}

func newRunner(p Params) *runner {
	r := &runner{p: p, cache: runcache.New[*cgct.Result](0, p.Parallel)}
	r.run = r.simulate
	return r
}

// options maps a run key to the public API options. get and prefetchAll
// must agree on this mapping exactly: the pooled path and the per-key
// path fill the same cache entries.
func (r *runner) options(k runKey) cgct.Options {
	return cgct.Options{
		OpsPerProc:    r.p.OpsPerProc,
		Seed:          k.seed,
		CGCT:          k.cgctOn,
		RegionBytes:   k.region,
		RCASets:       k.rcaSets,
		PerturbCycles: 40, // Alameldeen-style perturbation for CIs
	}
}

func (r *runner) simulate(k runKey) (*cgct.Result, error) {
	return cgct.Run(k.bench, r.options(k))
}

func (r *runner) simulateBatch(keys []runKey) ([]*cgct.Result, error) {
	reqs := make([]cgct.RunRequest, len(keys))
	for i, k := range keys {
		reqs[i] = cgct.RunRequest{Benchmark: k.bench, Options: r.options(k)}
	}
	return cgct.RunAll(context.Background(), reqs, r.p.Parallel)
}

// get runs (or fetches) one simulation.
func (r *runner) get(k runKey) *cgct.Result {
	res, err := r.cache.Do(context.Background(), k.String(), func(context.Context) (*cgct.Result, error) {
		return r.run(k)
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err)) // static inputs; cannot fail
	}
	return res
}

// prefetchAll warms the cache for a set of keys: every key missing from
// the cache is submitted to cgct.RunAll as one pool of p.Parallel
// workers. Results land in the same singleflight cache get() reads, so
// the figure code is unchanged.
func (r *runner) prefetchAll(keys []runKey) {
	seen := make(map[runKey]bool, len(keys))
	var want []runKey
	for _, k := range keys {
		if !seen[k] && !r.cache.Contains(k.String()) {
			seen[k] = true
			want = append(want, k)
		}
	}
	if len(want) == 0 {
		return
	}
	results, err := r.simulateBatch(want)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err)) // static inputs; cannot fail
	}
	for i, k := range want {
		res := results[i]
		// Seed the singleflight cache; a racing get() either computed it
		// first (identical by determinism) or reads this entry.
		r.cache.Do(context.Background(), k.String(), func(context.Context) (*cgct.Result, error) {
			return res, nil
		})
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ci95 returns the half-width of the 95% confidence interval.
func ci95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	sd := ss / float64(n-1)
	// Student-t two-sided 95% for small df.
	t := []float64{0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228}
	tv := 1.96
	if n-1 < len(t) {
		tv = t[n-1]
	}
	return tv * math.Sqrt(sd/float64(n))
}

// sortedBenchmarks returns the benchmark list in canonical order.
func (p Params) sortedBenchmarks() []string {
	out := append([]string(nil), p.Benchmarks...)
	canonical := map[string]int{}
	for i, b := range cgct.Benchmarks() {
		canonical[b.Name] = i
	}
	sort.SliceStable(out, func(i, j int) bool {
		return canonical[out[i]] < canonical[out[j]]
	})
	return out
}
