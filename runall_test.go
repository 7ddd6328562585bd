package cgct

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// runSequentially runs every request through Run, one after another: the
// reference every RunAll result must equal.
func runSequentially(t *testing.T, reqs []RunRequest) []*Result {
	t.Helper()
	want := make([]*Result, len(reqs))
	for i, rq := range reqs {
		r, err := Run(rq.Benchmark, rq.Options)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	return want
}

// TestRunAllBitIdentical: a pooled sweep — the five fabric variants of
// one workload, plus requests mixing processor counts, benchmarks and
// trace lengths so the longest-first order differs from request order —
// must return exactly what sequential Run calls return, result for
// result, in request order.
func TestRunAllBitIdentical(t *testing.T) {
	var reqs []RunRequest
	for _, o := range fabricVariants() {
		o.OpsPerProc, o.Seed = 6_000, 13
		reqs = append(reqs, RunRequest{Benchmark: "tpc-w", Options: o})
	}
	for _, rq := range []RunRequest{
		{"ocean", Options{Processors: 2, OpsPerProc: 3_000, CGCT: true}},
		{"tpc-b", Options{Processors: 8, OpsPerProc: 2_000, RegionScout: true, RegionBytes: 512}},
		{"barnes", Options{OpsPerProc: 1_000, Seed: 3}},
		{"tpc-b", Options{Processors: 8, OpsPerProc: 2_000, Directory: true, CGCT: true}},
	} {
		rq.Options.PerturbCycles = 40
		reqs = append(reqs, rq)
	}
	want := runSequentially(t, reqs)
	got, err := RunAll(context.Background(), reqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("request %d diverged under the pool:\npool       %+v\nsequential %+v", i, got[i], want[i])
		}
	}
}

// TestRunAllSchedulingInvariance: results are a function of the requests
// alone — any worker parallelism must produce bit-identical sweeps (the
// property that makes the scheduler free to choose).
func TestRunAllSchedulingInvariance(t *testing.T) {
	var reqs []RunRequest
	for _, bench := range []string{"ocean", "barnes"} {
		for _, o := range []Options{
			{},
			{CGCT: true, RegionBytes: 256},
			{CGCT: true, RegionBytes: 1024},
			{Directory: true},
		} {
			o.OpsPerProc, o.Seed = 3_000, 5
			reqs = append(reqs, RunRequest{Benchmark: bench, Options: o})
		}
	}
	ref := runSequentially(t, reqs)
	for _, par := range []int{1, 2, 4, 8} {
		got, err := RunAll(context.Background(), reqs, par)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for i := range reqs {
			if !reflect.DeepEqual(got[i], ref[i]) {
				t.Fatalf("parallelism %d: request %d (%s %+v) diverged from the sequential reference",
					par, i, reqs[i].Benchmark, reqs[i].Options)
			}
		}
	}
}

// TestRunAllFirstErrorAborts: an invalid request mid-list, or a context
// cancelled before the call, must fail the whole sweep — an error and
// nil results — and leave no worker goroutine behind.
func TestRunAllFirstErrorAborts(t *testing.T) {
	var reqs []RunRequest
	for i := 0; i < 8; i++ {
		reqs = append(reqs, RunRequest{Benchmark: "ocean", Options: Options{OpsPerProc: 2_000, Seed: uint64(i)}})
	}
	reqs[4].Benchmark = "no-such-benchmark"
	before := runtime.NumGoroutine()

	res, err := RunAll(context.Background(), reqs, 2)
	if err == nil || errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("invalid request: got %d results, err %v; want nil results and the request's own error", len(res), err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = RunAll(ctx, reqs[:4], 2)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled ctx: got %d results, err %v; want nil results and context.Canceled", len(res), err)
	}

	// Workers signal the WaitGroup just before they exit; give the last
	// ones a moment to unwind.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the aborted sweeps, %d before", n, before)
	}
}
