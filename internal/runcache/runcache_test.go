package runcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSingleflightOneExecution(t *testing.T) {
	c := New[int](0, 0)
	var execs atomic.Int32
	release := make(chan struct{})
	const n = 32
	var wg sync.WaitGroup
	results := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
				execs.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i] = v
		}(i)
	}
	// Let the goroutines pile up on the in-flight entry, then release.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Fatalf("fn executed %d times for %d concurrent identical keys, want 1", got, n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("results[%d] = %d", i, v)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != n-1 {
		t.Fatalf("stats = %+v, want 1 miss / %d hits", s, n-1)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New[int](0, 0)
	boom := errors.New("boom")
	calls := 0
	fail := func(context.Context) (int, error) { calls++; return 0, boom }
	if _, err := c.Do(context.Background(), "k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, err := c.Do(context.Background(), "k", func(context.Context) (int, error) { calls++; return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = %d, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (error must not be cached)", calls)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int](2, 0)
	ctx := context.Background()
	mk := func(i int) func(context.Context) (int, error) {
		return func(context.Context) (int, error) { return i, nil }
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Do(ctx, fmt.Sprintf("k%d", i), mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	// k0 was evicted (least recently used): recomputing it must miss.
	before := c.Stats().Misses
	if _, err := c.Do(ctx, "k0", mk(0)); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Misses; got != before+1 {
		t.Fatalf("misses = %d, want %d (k0 should have been evicted)", got, before+1)
	}
	if got := c.Stats().Evictions; got == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestLRUTouchOnHit(t *testing.T) {
	c := New[int](2, 0)
	ctx := context.Background()
	set := func(k string, v int) {
		t.Helper()
		if _, err := c.Do(ctx, k, func(context.Context) (int, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	set("a", 1)
	set("b", 2)
	set("a", 1) // touch a: b becomes LRU
	set("c", 3) // evicts b
	before := c.Stats().Misses
	set("a", 1)
	if c.Stats().Misses != before {
		t.Fatal("a was evicted despite being recently used")
	}
	set("b", 2)
	if c.Stats().Misses != before+1 {
		t.Fatal("b should have been evicted")
	}
}

func TestFollowerCancellation(t *testing.T) {
	c := New[int](0, 0)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _ = c.Do(context.Background(), "k", func(context.Context) (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Do(ctx, "k", func(context.Context) (int, error) { return 2, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v, want context.Canceled", err)
	}
	close(release)
}

func TestConcurrencyLimit(t *testing.T) {
	c := New[int](0, 2)
	var cur, peak atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = c.Do(context.Background(), fmt.Sprintf("k%d", i), func(context.Context) (int, error) {
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(5 * time.Millisecond)
				cur.Add(-1)
				return i, nil
			})
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("observed %d concurrent computations, limit 2", p)
	}
}

func TestLeaderPanicReleasesFollowers(t *testing.T) {
	c := New[int](0, 0)
	entered := make(chan struct{})
	release := make(chan struct{})
	const followers = 8

	var wg sync.WaitGroup
	errs := make([]error, followers)
	// Leader: panics mid-computation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
			close(entered)
			<-release
			panic("leader exploded")
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Errorf("leader err = %v, want *PanicError", err)
		}
	}()
	<-entered
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Do(context.Background(), "k", func(context.Context) (int, error) {
				t.Error("follower became a second leader while the first was in flight")
				return 0, nil
			})
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let followers join the in-flight entry
	close(release)
	wg.Wait()

	for i, err := range errs {
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("follower %d err = %v, want *PanicError", i, err)
		}
		if pe.Value != "leader exploded" {
			t.Fatalf("follower %d panic value = %q", i, pe.Value)
		}
		if pe.Stack == "" {
			t.Fatalf("follower %d PanicError has no stack", i)
		}
	}

	// The key must not be poisoned: the next Do is a fresh leader and its
	// result is cached normally.
	v, err := c.Do(context.Background(), "k", func(context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("post-panic Do = %d, %v, want fresh leader success", v, err)
	}
	if !c.Contains("k") || c.Len() != 1 {
		t.Fatalf("post-panic result not cached (len=%d)", c.Len())
	}
}

func TestPanicErrorStackTruncated(t *testing.T) {
	var deep func(n int)
	deep = func(n int) {
		if n == 0 {
			panic("deep")
		}
		deep(n - 1)
	}
	c := New[int](0, 0)
	_, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
		deep(200)
		return 0, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v", err)
	}
	if len(pe.Stack) > maxPanicStack {
		t.Fatalf("stack length %d exceeds cap %d", len(pe.Stack), maxPanicStack)
	}
}

// TestWeigherBytesAndEviction: with a weigher installed the cache tracks
// resident bytes and evicts LRU-first past the byte cap — but never the
// entry it just admitted, so one oversized value still caches.
func TestWeigherBytesAndEviction(t *testing.T) {
	c := New[[]byte](0, 0)
	c.SetWeigher(100, func(v []byte) int64 { return int64(len(v)) })
	ctx := context.Background()
	put := func(k string, n int) {
		t.Helper()
		if _, err := c.Do(ctx, k, func(context.Context) ([]byte, error) { return make([]byte, n), nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a", 40)
	put("b", 40)
	if s := c.Stats(); s.Bytes != 80 {
		t.Fatalf("bytes = %d, want 80", s.Bytes)
	}
	put("c", 40) // 120 > 100: evicts a (LRU)
	s := c.Stats()
	if s.Bytes != 80 || s.Evictions == 0 {
		t.Fatalf("after cap: bytes = %d, evictions = %d", s.Bytes, s.Evictions)
	}
	if c.Contains("a") || !c.Contains("b") || !c.Contains("c") {
		t.Fatal("wrong entry evicted")
	}
	// An entry bigger than the whole cap evicts everything else but stays
	// resident itself.
	put("huge", 500)
	if !c.Contains("huge") || c.Len() != 1 {
		t.Fatalf("oversized entry not retained alone (len=%d)", c.Len())
	}
	if s := c.Stats(); s.Bytes != 500 {
		t.Fatalf("bytes = %d, want 500", s.Bytes)
	}
}

// TestGetCountsHitsOnlyForResident: Get serves and counts resident values
// only; an absent or in-flight key is neither counted nor joined.
func TestGetCountsHitsOnlyForResident(t *testing.T) {
	c := New[int](0, 0)
	ctx := context.Background()
	if _, ok := c.Get("a"); ok {
		t.Fatal("Get on an empty cache reported a value")
	}
	if _, err := c.Do(ctx, "a", func(context.Context) (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _ = c.Do(ctx, "flight", func(context.Context) (int, error) {
			close(started)
			<-release
			return 2, nil
		})
	}()
	<-started
	defer close(release)

	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %t; want 1, true", v, ok)
	}
	if _, ok := c.Get("flight"); ok {
		t.Fatal("Get joined an in-flight computation")
	}
	if _, ok := c.Get("absent"); ok {
		t.Fatal("Get reported a value for an absent key")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 2 || s.InFlight != 1 {
		t.Fatalf("stats = %+v, want 1 hit (resident Get) / 2 misses (the two Do leaders) / 1 in flight", s)
	}
}

// TestGetRefreshesLRU: a Get touches its entry, so the other one is
// evicted first.
func TestGetRefreshesLRU(t *testing.T) {
	c := New[int](2, 0)
	put := func(key string, v int) {
		if _, err := c.Do(context.Background(), key, func(context.Context) (int, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a", 1)
	put("b", 2)
	if _, ok := c.Get("a"); !ok { // b becomes LRU
		t.Fatal("a not resident")
	}
	put("c", 3) // evicts b
	if !c.Contains("a") || c.Contains("b") || !c.Contains("c") {
		t.Fatalf("wrong entry evicted: a=%t b=%t c=%t", c.Contains("a"), c.Contains("b"), c.Contains("c"))
	}
}

// TestConcurrentGetDoAccounting mixes Get and Do on a few hot keys from
// many goroutines under tight bounds. Every Do counts exactly one hit or
// miss, and every successful Get one hit, so the counters must add up;
// resident bytes must match the surviving entries.
func TestConcurrentGetDoAccounting(t *testing.T) {
	c := New[[]byte](4, 0)
	c.SetWeigher(64, func(v []byte) int64 { return int64(len(v)) })
	const goroutines, ops = 8, 400
	var counted atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("k%d", (g+i)%7)
				size := 8 + (g+i)%7*4
				switch i % 2 {
				case 0:
					if _, ok := c.Get(key); ok {
						counted.Add(1)
					}
				default:
					if _, err := c.Do(context.Background(), key, func(context.Context) ([]byte, error) {
						return make([]byte, size), nil
					}); err != nil {
						t.Errorf("Do(%s): %v", key, err)
					}
					counted.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses != counted.Load() {
		t.Fatalf("hits %d + misses %d != %d counted operations", s.Hits, s.Misses, counted.Load())
	}
	if s.Entries > 4 || s.InFlight != 0 {
		t.Fatalf("stats = %+v, want at most 4 entries and none in flight", s)
	}
	var bytes int64
	for i := 0; i < 7; i++ {
		if v, ok := c.Peek(fmt.Sprintf("k%d", i)); ok {
			bytes += int64(len(v))
		}
	}
	if bytes != s.Bytes {
		t.Fatalf("resident entries weigh %d bytes, stats say %d", bytes, s.Bytes)
	}
}

// TestWeigherComposesWithEntryCap: the entry cap and the byte cap evict
// independently; bytes stay consistent through entry-cap evictions.
func TestWeigherComposesWithEntryCap(t *testing.T) {
	c := New[[]byte](2, 0)
	c.SetWeigher(1<<20, func(v []byte) int64 { return int64(len(v)) })
	ctx := context.Background()
	for i, k := range []string{"a", "b", "c"} {
		if _, err := c.Do(ctx, k, func(context.Context) ([]byte, error) { return make([]byte, 10+i), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if s := c.Stats(); s.Bytes != 11+12 {
		t.Fatalf("bytes = %d, want %d after entry-cap eviction", s.Bytes, 11+12)
	}
}
