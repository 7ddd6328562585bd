package runcache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestEvictionRacingInflightLeaders is the evict-while-computing
// property, under -race: a tiny LRU bound churning hard while leaders
// are still computing must neither drop an in-flight result (followers
// always get their leader's value) nor double-compute (at most one
// computation per key is ever in flight at once). In-flight entries
// live outside the LRU list, so eviction pressure from other keys
// completing must not be able to touch them.
func TestEvictionRacingInflightLeaders(t *testing.T) {
	c := New[string](2) // 2-entry bound: almost every completion evicts
	const (
		keys       = 16
		goroutines = 8
		rounds     = 40
	)
	var inflight [keys]atomic.Int32 // live computations per key; must never exceed 1
	var computes [keys]atomic.Int32

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (g + i) % keys
				key := fmt.Sprintf("key-%d", k)
				want := fmt.Sprintf("value-%d", k)
				got, err := c.Do(context.Background(), key, func(ctx context.Context) (string, error) {
					if n := inflight[k].Add(1); n != 1 {
						t.Errorf("key %d: %d concurrent computations", k, n)
					}
					computes[k].Add(1)
					// Stretch the in-flight window so other keys' completions
					// run the evictor while we are still computing.
					for j := 0; j < 1000; j++ {
						_ = j
					}
					inflight[k].Add(-1)
					return want, nil
				})
				if err != nil {
					t.Errorf("Do(%s): %v", key, err)
					return
				}
				if got != want {
					// The failure mode evict-while-computing would produce:
					// a follower handed a dropped/foreign entry's value.
					t.Errorf("Do(%s) = %q, want %q", key, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Recomputation after eviction is legitimate; more computations than
	// Do calls for a key is not.
	var total int32
	for k := 0; k < keys; k++ {
		total += computes[k].Load()
	}
	if total == 0 || total > goroutines*rounds {
		t.Fatalf("%d computations across %d Do calls", total, goroutines*rounds)
	}
	if c.Len() > 2 {
		t.Fatalf("resident entries %d exceed the bound", c.Len())
	}
	st := c.Stats()
	if st.InFlight != 0 {
		t.Fatalf("in-flight %d after all Do calls returned", st.InFlight)
	}
}

// TestPeek: resident values are visible without becoming a leader or
// perturbing LRU order / counters; in-flight and absent keys are not.
func TestPeek(t *testing.T) {
	c := New[int](2)
	if _, ok := c.Peek("absent"); ok {
		t.Fatal("Peek(absent) = ok")
	}
	mustDo := func(key string, v int) {
		t.Helper()
		if _, err := c.Do(context.Background(), key, func(context.Context) (int, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	mustDo("a", 1)
	before := c.Stats()
	got, ok := c.Peek("a")
	if !ok || got != 1 {
		t.Fatalf("Peek(a) = %d, %t", got, ok)
	}
	if after := c.Stats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("Peek moved counters: %+v → %+v", before, after)
	}

	// An in-flight key must not be Peekable (there is no value yet).
	started, release := make(chan struct{}), make(chan struct{})
	go c.Do(context.Background(), "slow", func(context.Context) (int, error) {
		close(started)
		<-release
		return 9, nil
	})
	<-started
	if _, ok := c.Peek("slow"); ok {
		t.Fatal("Peek(in-flight) = ok")
	}
	close(release)
}

// TestWaitJoinsWithoutLeading: Wait returns resident values, parks on
// in-flight computations without ever starting one, and reports absent
// keys as not-found.
func TestWaitJoinsWithoutLeading(t *testing.T) {
	c := New[int](4)
	ctx := context.Background()

	if _, ok, err := c.Wait(ctx, "absent"); ok || err != nil {
		t.Fatalf("Wait(absent) = ok=%t err=%v", ok, err)
	}

	if _, err := c.Do(ctx, "done", func(context.Context) (int, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Wait(ctx, "done"); !ok || err != nil || v != 7 {
		t.Fatalf("Wait(done) = %d, %t, %v", v, ok, err)
	}

	// Join an in-flight leader and receive its value on completion.
	started, release := make(chan struct{}), make(chan struct{})
	var leaderDone sync.WaitGroup
	leaderDone.Add(1)
	go func() {
		defer leaderDone.Done()
		c.Do(ctx, "slow", func(context.Context) (int, error) {
			close(started)
			<-release
			return 11, nil
		})
	}()
	<-started
	waitRes := make(chan int, 1)
	go func() {
		v, ok, err := c.Wait(ctx, "slow")
		if !ok || err != nil {
			t.Errorf("Wait(slow) = %t, %v", ok, err)
		}
		waitRes <- v
	}()
	// A second Wait with a cancelled context must abort promptly.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, ok, err := c.Wait(cctx, "slow"); !ok || err == nil {
		t.Fatalf("Wait(cancelled ctx) = ok=%t err=%v, want join+ctx error", ok, err)
	}
	close(release)
	if v := <-waitRes; v != 11 {
		t.Fatalf("joined Wait got %d, want 11", v)
	}
	leaderDone.Wait()
}
