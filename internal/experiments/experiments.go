// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment lists its simulations, runs them as one
// cgct.RunAll pool of Params.Parallel workers, and returns printable rows;
// the cmd/cgctexperiments binary and the repository benchmarks drive them.
//
// The harness drives the public cgct API the way a downstream user would;
// from the internals it takes only stats.SpeedupPct, cgct.Compare's metric.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"cgct"
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
	return p
}

// perturbCycles is the Alameldeen-style timing perturbation every seeded
// run gets, so that seeds give distinct runs and a figure can report a
// confidence interval over them.
const perturbCycles = 40

// request is one run of benchmark b at seed, on the machine o describes,
// with the sweep's trace length and the seed perturbation filled in.
func (p Params) request(b string, seed uint64, o cgct.Options) cgct.RunRequest {
	o.OpsPerProc = p.OpsPerProc
	o.Seed = seed
	o.PerturbCycles = perturbCycles
	return cgct.RunRequest{Benchmark: b, Options: o}
}

// cgctAt is the machine with CGCT on at the given region size.
func cgctAt(region uint64) cgct.Options {
	return cgct.Options{CGCT: true, RegionBytes: region}
}

// sweep lists a run of every benchmark at each of seeds on each machine.
func (p Params) sweep(seeds []uint64, machines ...cgct.Options) []cgct.RunRequest {
	var reqs []cgct.RunRequest
	for _, b := range p.sortedBenchmarks() {
		for _, s := range seeds {
			for _, o := range machines {
				reqs = append(reqs, p.request(b, s, o))
			}
		}
	}
	return reqs
}

// runAll simulates an experiment's runs as one cgct.RunAll pool of
// p.Parallel workers and returns each result under its request.
func (p Params) runAll(reqs []cgct.RunRequest) map[cgct.RunRequest]*cgct.Result {
	results, err := cgct.RunAll(context.Background(), reqs, p.Parallel)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err)) // static inputs; cannot fail
	}
	byReq := make(map[cgct.RunRequest]*cgct.Result, len(reqs))
	for i, rq := range reqs {
		byReq[rq] = results[i]
	}
	return byReq
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

// tTable95 holds two-sided 95% critical values of Student's t, indexed
// by degrees of freedom (1–30); beyond it ci95 uses the normal 1.96.
var tTable95 = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
	2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
	2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
	2.042,
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
	variance := ss / float64(n-1)
	tv := 1.96
	if n-1 < len(tTable95) {
		tv = tTable95[n-1]
	}
	return tv * math.Sqrt(variance/float64(n))
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
