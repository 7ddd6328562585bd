package trace

import (
	"bytes"
	"context"
	"crypto/sha256"
	"math"
	"runtime"
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

// TestPersistentTraceFormatUpgrade: a store filled by an earlier version
// holds a CGCTCPT2 file under a trace's key. Get treats it as a miss,
// compiling once with no store hit, and its spill replaces the entry with
// a CGCTCPT3 file of the same content. The old entry is this version's
// own file under the version-2 magic, sealed with a valid digest, so only
// the magic refuses it.
func TestPersistentTraceFormatUpgrade(t *testing.T) {
	s, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	SetPersistentStore(s)
	defer SetPersistentStore(nil)
	ctx := context.Background()

	k := Key{Benchmark: "ocean", Processors: 2, OpsPerProc: 1_500, Seed: coldSeed()}.normalize()
	pre, err := Compile(ctx, k.Benchmark, workload.Params{Processors: k.Processors, OpsPerProc: k.OpsPerProc, Seed: k.Seed})
	if err != nil {
		t.Fatal(err)
	}
	v3 := traceBytes(t, pre)
	v2 := append([]byte("CGCTCPT2"), v3[8:len(v3)-sha256.Size]...)
	sum := sha256.Sum256(v2)
	if err := s.Put(storeKey(k), append(v2, sum[:]...)); err != nil {
		t.Fatal(err)
	}
	s.Flush()

	before := SharedStats()
	got, err := Get(ctx, k)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	after := SharedStats()
	if after.Compilations != before.Compilations+1 || after.StoreHits != before.StoreHits {
		t.Fatalf("compilations %d → %d and store hits %d → %d, want one compilation and no store hit",
			before.Compilations, after.Compilations, before.StoreHits, after.StoreHits)
	}
	if got.ContentHash() != pre.ContentHash() {
		t.Fatalf("recompiled trace hash %s != %s", got.ContentHash(), pre.ContentHash())
	}

	s.Flush()
	payload, err := s.Get(storeKey(k))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(payload, fileMagic[:]) {
		t.Fatalf("store entry starts %q after the spill, want the CGCTCPT3 magic", payload[:8])
	}
	loaded, ok := loadPersisted(k)
	if !ok {
		t.Fatal("loadPersisted failed after the spill")
	}
	if loaded.ContentHash() != pre.ContentHash() {
		t.Fatalf("spilled trace hash %s != %s", loaded.ContentHash(), pre.ContentHash())
	}
}

// TestSpillAllocation caps what one spill of the pinned tpc-b trace (an
// 83,179-byte file) allocates, the store's background persist included,
// at 1.5 times the file. The file is serialised once into a buffer of its
// exact size, which the store keeps without copying and writes without an
// intermediate buffer; a buffer grown by doubling, a copy in Put or a
// buffered writer per entry each push a spill past the cap. The smallest
// of three spills counts.
func TestSpillAllocation(t *testing.T) {
	s, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	SetPersistentStore(s)
	defer SetPersistentStore(nil)

	tr, err := Compile(context.Background(), "tpc-b", workload.Params{Processors: 4, OpsPerProc: 5_000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	size := uint64(len(traceBytes(t, tr)))
	if int64(size) != tr.fileSize() {
		t.Fatalf("fileSize = %d, Write produced %d bytes", tr.fileSize(), size)
	}
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		k := Key{Benchmark: "tpc-b", Processors: 4, OpsPerProc: 5_000, Seed: coldSeed()}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		spillPersisted(k, tr)
		s.Flush()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("one spill of a %d-byte file allocated %d bytes (%.2fx)", size, least, float64(least)/float64(size))
	if least > size*3/2 {
		t.Errorf("one spill of a %d-byte file allocated %d bytes (%.2fx), cap 1.5x", size, least, float64(least)/float64(size))
	}
}
