package trace

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cgct/internal/metrics"
	"cgct/internal/runcache"
	"cgct/internal/workload"
)

// Key identifies one compiled trace: everything that determines the op
// streams. Machine configuration (region size, RCA geometry, protocol
// variants) deliberately does not appear — that is the point of sharing:
// every sweep variant over the same workload replays the same slab.
type Key struct {
	Benchmark  string
	Processors int
	OpsPerProc int
	Seed       uint64
}

// normalize applies the same defaults workload.Build would, so callers
// that leave OpsPerProc zero share a cache entry with callers that spell
// the default out.
func (k Key) normalize() Key {
	if k.OpsPerProc <= 0 {
		k.OpsPerProc = workload.DefaultOpsPerProc
	}
	return k
}

// String renders the canonical cache key.
func (k Key) String() string {
	return fmt.Sprintf("trace|%s|procs=%d|ops=%d|seed=%d", k.Benchmark, k.Processors, k.OpsPerProc, k.Seed)
}

// Shared-cache bounds. Compiled traces are a little over 4 bytes per op
// (Trace.Bytes); the byte cap, not the entry cap, is the real bound on
// resident memory.
const (
	// MaxSharedOps is the largest workload (processors × ops each) the
	// shared cache will compile; bigger requests get ErrTooLarge and the
	// caller falls back to live per-op generation.
	MaxSharedOps = 32 << 20
	// maxSharedBytes bounds resident compiled-trace bytes (LRU beyond).
	maxSharedBytes = 512 << 20
	// maxSharedEntries bounds the distinct traces resident at once.
	maxSharedEntries = 64
)

// ErrTooLarge reports a workload beyond MaxSharedOps. Callers should fall
// back to live generation rather than materialising a giant slab.
var ErrTooLarge = errors.New("trace: workload too large for the shared compiled-trace cache")

var (
	shared       = runcache.New[*Trace](maxSharedEntries)
	compilations atomic.Uint64
	storeHits    atomic.Uint64
)

func init() {
	shared.SetWeigher(maxSharedBytes, func(t *Trace) int64 { return t.Bytes() })
}

// PersistentStore is the disk spill target for compiled traces — the
// subset of internal/store's API the trace cache needs, declared here so
// the dependency points store-ward only. Keys are 64-char hex sha256.
type PersistentStore interface {
	Get(key string) ([]byte, error)
	Put(key string, payload []byte) error
}

var (
	persistMu sync.RWMutex
	persist   PersistentStore
)

// SetPersistentStore installs (or, with nil, removes) the disk store
// compiled traces spill to: each cache-miss compilation is serialised in
// the CGCTCPT1 format and written through ps, and later misses — in this
// process after an eviction, or in a restarted one — load the slab from
// disk instead of re-generating and re-encoding the workload. Store
// failures in either direction are invisible to callers: persistence is
// a warm-start optimisation, never a correctness dependency.
func SetPersistentStore(ps PersistentStore) {
	persistMu.Lock()
	persist = ps
	persistMu.Unlock()
}

// storeKey derives the disk address for k: traces share the store with
// content-addressed results, whose keys are sha256 hex, so the trace
// cache key string is hashed into the same namespace.
func storeKey(k Key) string {
	sum := sha256.Sum256([]byte(k.String()))
	return hex.EncodeToString(sum[:])
}

// loadPersisted attempts to serve k from the persistent store. The
// CGCTCPT1 envelope revalidates every byte on the way in, so a stale or
// corrupt spill deserialises to an error, not a wrong trace.
func loadPersisted(k Key) (*Trace, bool) {
	persistMu.RLock()
	ps := persist
	persistMu.RUnlock()
	if ps == nil {
		return nil, false
	}
	payload, err := ps.Get(storeKey(k))
	if err != nil {
		return nil, false
	}
	t, err := Read(bytes.NewReader(payload))
	if err != nil || t.Name != k.Benchmark {
		return nil, false
	}
	return t, true
}

// spillPersisted writes a freshly compiled trace through the store's
// write-behind queue. Best-effort by design.
func spillPersisted(k Key, t *Trace) {
	persistMu.RLock()
	ps := persist
	persistMu.RUnlock()
	if ps == nil {
		return
	}
	var buf bytes.Buffer
	if err := t.Write(&buf); err != nil {
		return
	}
	_ = ps.Put(storeKey(k), buf.Bytes())
}

// Get returns the process-wide shared compiled trace for k, compiling it
// at most once no matter how many simulations — concurrent server jobs,
// sweep variants, benchmark iterations — ask for it (singleflight). The
// returned trace is immutable and shared; call its Workload method for
// replay cursors.
func Get(ctx context.Context, k Key) (*Trace, error) {
	k = k.normalize()
	if k.Processors > 0 && int64(k.Processors)*int64(k.OpsPerProc) > MaxSharedOps {
		return nil, ErrTooLarge
	}
	return shared.Do(ctx, k.String(), func(ctx context.Context) (*Trace, error) {
		if t, ok := loadPersisted(k); ok {
			storeHits.Add(1)
			return t, nil
		}
		compilations.Add(1)
		t, err := Compile(ctx, k.Benchmark, workload.Params{
			Processors: k.Processors,
			OpsPerProc: k.OpsPerProc,
			Seed:       k.Seed,
		})
		if err == nil {
			spillPersisted(k, t)
		}
		return t, err
	})
}

// Stats reports shared-cache behaviour: singleflight hits, misses,
// evictions, resident entries and bytes, plus the number of trace
// compilations actually performed process-wide.
type Stats struct {
	runcache.Stats
	Compilations uint64
	// StoreHits counts compilations avoided by loading the compiled slab
	// from the persistent store (warm restarts and post-eviction reloads).
	StoreHits uint64
}

// SharedStats snapshots the shared cache.
func SharedStats() Stats {
	return Stats{
		Stats:        shared.Stats(),
		Compilations: compilations.Load(),
		StoreHits:    storeHits.Load(),
	}
}

// RegisterMetrics registers the process-wide compiled-trace cache into
// reg: the underlying runcache counters/gauges under cgct_trace_cache_*,
// plus the number of trace compilations actually performed. Values are
// read at scrape time, so multiple registries (one per server Manager, as
// tests create) can all observe the one shared cache.
func RegisterMetrics(reg *metrics.Registry) {
	shared.RegisterMetrics(reg, "cgct_trace_cache")
	reg.CounterFunc("cgct_trace_compilations_total", "workload trace compilations performed process-wide",
		func() float64 { return float64(compilations.Load()) })
	reg.CounterFunc("cgct_trace_store_hits_total", "compilations avoided by loading the compiled slab from the persistent store",
		func() float64 { return float64(storeHits.Load()) })
}
