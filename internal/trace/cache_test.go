package trace

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"cgct/internal/workload"
)

// coldSeeds counts the seeds coldSeed has handed out.
var coldSeeds atomic.Uint64

// coldSeed returns a seed no other key in this process has used, so a test
// that needs its key cold in the process-wide cache still finds it cold
// when the test runs again in the same process (go test -count=N).
func coldSeed() uint64 { return 1<<48 + coldSeeds.Add(1) }

// TestGetSingleflight: concurrent Gets of one key cost exactly one
// compilation and share one slab.
func TestGetSingleflight(t *testing.T) {
	k := Key{Benchmark: "ocean", Processors: 4, OpsPerProc: 1_717, Seed: coldSeed()}
	before := SharedStats().Compilations
	const n = 16
	results := make([]*Trace, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := Get(context.Background(), k)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			results[i] = tr
		}(i)
	}
	wg.Wait()
	if got := SharedStats().Compilations - before; got != 1 {
		t.Fatalf("%d concurrent Gets compiled %d times, want 1", n, got)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent callers got different trace pointers")
		}
	}
	if results[0].Bytes() <= 0 {
		t.Fatal("compiled trace reports no resident bytes")
	}
}

// TestGetNormalizesDefaults: OpsPerProc 0 and the spelled-out default
// share one cache entry.
func TestGetNormalizesDefaults(t *testing.T) {
	if got := (Key{Benchmark: "x"}).normalize().OpsPerProc; got != workload.DefaultOpsPerProc {
		t.Fatalf("normalized ops = %d", got)
	}
	a := Key{Benchmark: "x", Processors: 4, Seed: 1}.normalize().String()
	b := Key{Benchmark: "x", Processors: 4, OpsPerProc: workload.DefaultOpsPerProc, Seed: 1}.normalize().String()
	if a != b {
		t.Fatalf("keys differ: %q vs %q", a, b)
	}
}

// TestGetTooLarge: workloads beyond MaxSharedOps are refused so callers
// fall back to live generation instead of materialising gigabytes.
func TestGetTooLarge(t *testing.T) {
	_, err := Get(context.Background(), Key{Benchmark: "ocean", Processors: 128, OpsPerProc: 20_000_000, Seed: 1})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

// TestSharedStatsBytes: resident bytes are reported once a trace is
// cached.
func TestSharedStatsBytes(t *testing.T) {
	if _, err := Get(context.Background(), Key{Benchmark: "tpc-b", Processors: 2, OpsPerProc: 1_313, Seed: 881}); err != nil {
		t.Fatal(err)
	}
	if s := SharedStats(); s.Bytes <= 0 {
		t.Fatalf("shared cache bytes = %d after a successful Get", s.Bytes)
	}
}
