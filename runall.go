package cgct

// Sweeps of independent runs: RunAll spreads a list of requests over a
// pool of worker goroutines. Simulator instances share no mutable state,
// and the process-wide compiled-trace cache compiles each workload once
// however many requests replay it, so every pooled run is bit-identical
// to the same request run alone — determinism is the contract that makes
// this safe (see DESIGN.md §11).

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"cgct/internal/workload"
)

// RunRequest is one point of a sweep: a benchmark plus the machine
// options to simulate it under.
type RunRequest struct {
	Benchmark string
	Options   Options
}

// RunAll executes every request on parallelism worker goroutines (<=0
// means GOMAXPROCS). Workers claim requests longest-first (processors ×
// ops per processor) so the tail of the schedule is short, and run each
// through RunContext.
// Results align positionally with reqs and are bit-identical to calling
// Run once per request, at any parallelism. The first error cancels the
// remaining runs and is returned with nil results. A span recorder on
// ctx (WithSpanRecorder) receives every run's phases, from concurrent
// goroutines when parallelism > 1.
func RunAll(ctx context.Context, reqs []RunRequest, parallelism int) ([]*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, nil
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	order := longestFirst(reqs)
	results := make([]*Result, len(reqs))

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for w := min(parallelism, len(reqs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(order) || runCtx.Err() != nil {
					return
				}
				i := order[n]
				res, err := RunContext(runCtx, reqs[i].Benchmark, reqs[i].Options)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
						cancel()
					}
					mu.Unlock()
					return
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// longestFirst returns the request indices ordered by decreasing cost
// (processors × ops per processor, after defaults), ties in request order.
func longestFirst(reqs []RunRequest) []int {
	order := make([]int, len(reqs))
	cost := make([]int64, len(reqs))
	for i, rq := range reqs {
		_, o := ResolveConfig(rq.Options)
		ops := o.OpsPerProc
		if ops <= 0 {
			ops = workload.DefaultOpsPerProc
		}
		order[i], cost[i] = i, int64(o.Processors)*int64(ops)
	}
	sort.SliceStable(order, func(a, b int) bool { return cost[order[a]] > cost[order[b]] })
	return order
}
