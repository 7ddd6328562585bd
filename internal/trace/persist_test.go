package trace

import (
	"context"
	"testing"

	"cgct/internal/store"
	"cgct/internal/workload"
)

// TestPersistentTraceSpillAndWarmLoad: a compiled trace spills to the
// persistent store, and a key pre-seeded on disk is served from the
// store without a compilation — the warm-restart path. Both keys take
// fresh seeds (coldSeed), so the process-wide shared cache starts cold for
// them on every run of the test.
func TestPersistentTraceSpillAndWarmLoad(t *testing.T) {
	s, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	SetPersistentStore(s)
	defer SetPersistentStore(nil)
	ctx := context.Background()

	// Cold key: Get compiles and spills.
	cold := Key{Benchmark: "ocean", Processors: 2, OpsPerProc: 1_500, Seed: coldSeed()}
	before := SharedStats()
	tr, err := Get(ctx, cold)
	if err != nil {
		t.Fatalf("Get(cold): %v", err)
	}
	s.Flush()
	if !s.Has(storeKey(cold.normalize())) {
		t.Fatal("compiled trace was not spilled to the persistent store")
	}
	after := SharedStats()
	if after.Compilations != before.Compilations+1 {
		t.Fatalf("compilations %d → %d, want one fresh compile", before.Compilations, after.Compilations)
	}

	// Warm key: pre-seed the store out of band (simulating a previous
	// process), then Get must load it with zero compilations.
	warm := Key{Benchmark: "ocean", Processors: 2, OpsPerProc: 1_500, Seed: coldSeed()}.normalize()
	pre, err := Compile(ctx, warm.Benchmark, workload.Params{
		Processors: warm.Processors, OpsPerProc: warm.OpsPerProc, Seed: warm.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	spillPersisted(warm, pre)
	s.Flush()

	before = SharedStats()
	got, err := Get(ctx, warm)
	if err != nil {
		t.Fatalf("Get(warm): %v", err)
	}
	after = SharedStats()
	if after.Compilations != before.Compilations {
		t.Fatalf("warm load still compiled (%d → %d)", before.Compilations, after.Compilations)
	}
	if after.StoreHits != before.StoreHits+1 {
		t.Fatalf("store hits %d → %d, want +1", before.StoreHits, after.StoreHits)
	}
	// The loaded slab must be bit-identical to a fresh compilation.
	if got.ContentHash() != pre.ContentHash() {
		t.Fatalf("store-loaded trace hash %s != compiled %s", got.ContentHash(), pre.ContentHash())
	}

	// And the spilled cold entry round-trips to the same content hash.
	loaded, ok := loadPersisted(cold.normalize())
	if !ok {
		t.Fatal("loadPersisted(cold) failed after spill")
	}
	if loaded.ContentHash() != tr.ContentHash() {
		t.Fatalf("spilled trace hash %s != original %s", loaded.ContentHash(), tr.ContentHash())
	}
}
