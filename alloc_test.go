package cgct

import (
	"math"
	"runtime"
	"testing"
)

// raceEnabled reports a -race build (race_test.go), in which sync.Pool
// drops a random quarter of what it is handed.
var raceEnabled bool

// TestRepeatedRunAllocation gates recycled machine storage: once a warm-up
// run has compiled the trace into the shared cache and released its
// machine, a repeated Run of the same request reuses that machine's tag
// arrays, and a directory run its homes' record tables, and allocates
// only per-run bookkeeping. Fresh tag storage alone is 1.6 MiB for the
// 4-processor CGCT machine, 6.3 MiB for the 16-processor ones and
// 0.5 MiB for the last case's sectored L2s. The
// smallest of three measured runs counts, so one run that a collection
// left without recycled storage does not fail it.
func TestRepeatedRunAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops released storage at random under -race")
	}
	for _, c := range []struct {
		name      string
		benchmark string
		opts      Options
		budget    uint64
	}{
		{"4-processor CGCT ocean", "ocean", Options{OpsPerProc: 2_000, Seed: 3, CGCT: true}, 128 << 10},
		{"16-processor CGCT tpc-b", "tpc-b", Options{Processors: 16, OpsPerProc: 2_000, Seed: 3, CGCT: true}, 256 << 10},
		{"16-processor directory+CGCT tpc-b", "tpc-b", Options{Processors: 16, OpsPerProc: 2_000, Seed: 3, CGCT: true, Directory: true}, 256 << 10},
		{"4-processor ocean, 512 B L2 sectors", "ocean", Options{OpsPerProc: 2_000, Seed: 3, L2SectorBytes: 512}, 128 << 10},
	} {
		if _, err := Run(c.benchmark, c.opts); err != nil {
			t.Fatal(err)
		}
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Run(c.benchmark, c.opts); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s: a repeated Run allocated %d KiB", c.name, least>>10)
		if least > c.budget {
			t.Errorf("%s: a repeated Run allocated %d KiB, budget %d KiB", c.name, least>>10, c.budget>>10)
		}
	}
}
