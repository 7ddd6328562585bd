package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"cgct/internal/faultinject"
)

func keyOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestRingDistributesAndIsStable(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := newRing(peers)
	owner := func(k string) string {
		t.Helper()
		got := r.owners(k, 1)
		if len(got) != 1 {
			t.Fatalf("owners(%s, 1) = %v with a peer alive", k, got)
		}
		return got[0]
	}
	counts := map[string]int{}
	owners := map[string]string{}
	const n = 3000
	for i := 0; i < n; i++ {
		k := keyOf(fmt.Sprintf("key-%d", i))
		p := owner(k)
		counts[p]++
		owners[k] = p
	}
	// Determinism: same key, same owner.
	for k, want := range owners {
		if got := owner(k); got != want {
			t.Fatalf("owner(%s) flapped: %s then %s", k, want, got)
		}
	}
	// Rough balance: with 64 vnodes each peer should own a meaningful
	// share; a peer below 10% indicates a broken ring, not noise.
	for _, p := range peers {
		if counts[p] < n/10 {
			t.Errorf("peer %s owns only %d/%d keys", p, counts[p], n)
		}
	}

	// Evicting one peer moves only its keys; survivors keep every key
	// they already owned (consistent hashing's whole point).
	r.setAlive("http://b:1", false)
	moved := 0
	for k, was := range owners {
		now := owner(k)
		if was == "http://b:1" {
			if now == "http://b:1" {
				t.Fatal("dead peer still owns a key")
			}
			moved++
		} else if now != was {
			t.Fatalf("key %s moved %s → %s though its owner stayed alive", k, was, now)
		}
	}
	if moved != counts["http://b:1"] {
		t.Fatalf("moved %d keys, want exactly the dead peer's %d", moved, counts["http://b:1"])
	}

	// Reinstating restores the original assignment exactly.
	r.setAlive("http://b:1", true)
	for k, was := range owners {
		if now := owner(k); now != was {
			t.Fatalf("assignment changed after evict+reinstate: %s: %s → %s", k, was, now)
		}
	}
}

func TestRingAllDead(t *testing.T) {
	r := newRing([]string{"http://a:1", "http://b:1"})
	r.setAlive("http://a:1", false)
	r.setAlive("http://b:1", false)
	if got := r.owners(keyOf("x"), 1); got != nil {
		t.Fatalf("owners = %v with every peer dead, want nil", got)
	}
}

func TestParsePeers(t *testing.T) {
	got, err := ParsePeers(" http://a:8080, http://b:8080/ ,http://a:8080,")
	if err != nil {
		t.Fatalf("ParsePeers: %v", err)
	}
	want := []string{"http://a:8080", "http://b:8080"}
	if len(got) != len(want) {
		t.Fatalf("ParsePeers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParsePeers = %v, want %v", got, want)
		}
	}
	for _, bad := range []string{
		"ftp://a:8080",
		"http://",
		"http://a:8080/v1/jobs",
		"http://a:8080?x=1",
		"http://user:pass@a:8080",
		"not a url://",
		"http://a:8080#frag",
	} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted", bad)
		}
	}
}

// newTestCluster builds a two-node cluster whose one remote peer is the
// given handler.
func newTestCluster(t testing.TB, peer http.Handler, cfg Config) (*Cluster, string) {
	t.Helper()
	hs := httptest.NewServer(peer)
	t.Cleanup(hs.Close)
	cfg.Self = "http://self.invalid:1"
	cfg.Peers = []string{cfg.Self, hs.URL}
	cfg.ProbeInterval = -1 // probes driven manually
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c, hs.URL
}

func TestFetchRoundTrip(t *testing.T) {
	key := keyOf("fetched")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/results/{key}", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("key") != key {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, `{"cycles":42}`)
	})
	c, peerURL := newTestCluster(t, mux, Config{})
	body, err := c.Fetch(context.Background(), peerURL, key)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if string(body) != `{"cycles":42}` {
		t.Fatalf("Fetch = %q", body)
	}
	if _, err := c.Fetch(context.Background(), peerURL, keyOf("absent")); !errors.Is(err, ErrNoResult) {
		t.Fatalf("Fetch(absent) = %v, want ErrNoResult", err)
	}
	st := c.Stats()
	if st.FetchHits != 1 || st.FetchMisses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// BenchmarkClusterFetch measures one peer fetch of a 4 KiB result over
// loopback HTTP: this node's Cluster against a peer serving its results
// endpoint.
func BenchmarkClusterFetch(b *testing.B) {
	payload := bytes.Repeat([]byte{'x'}, 4<<10)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/results/{key}", func(w http.ResponseWriter, r *http.Request) {
		w.Write(payload)
	})
	c, peerURL := newTestCluster(b, mux, Config{})
	key := keyOf("fetched")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := c.Fetch(ctx, peerURL, key)
		if err != nil || len(body) != len(payload) {
			b.Fatalf("Fetch: %d bytes, %v", len(body), err)
		}
	}
}

// TestFetchRetriesThenSucceeds: transient 5xx responses are retried with
// backoff; the fetch succeeds once the peer recovers.
func TestFetchRetriesThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			http.Error(w, "wedged", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, "result")
	})
	c, peerURL := newTestCluster(t, h, Config{
		FetchAttempts: 4, FetchBaseDelay: time.Millisecond, FetchMaxDelay: 5 * time.Millisecond,
	})
	body, err := c.Fetch(context.Background(), peerURL, keyOf("retry"))
	if err != nil || string(body) != "result" {
		t.Fatalf("Fetch = %q, %v", body, err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("peer saw %d calls, want 3", got)
	}
	if st := c.Stats(); st.FetchErrors != 2 {
		t.Fatalf("fetch errors = %d, want 2", st.FetchErrors)
	}
}

// TestFetchExhaustsAttempts: a persistently failing peer surfaces an
// error after the attempt budget (the caller then simulates locally).
func TestFetchExhaustsAttempts(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
	c, peerURL := newTestCluster(t, h, Config{
		FetchAttempts: 3, FetchBaseDelay: time.Millisecond, FetchMaxDelay: 2 * time.Millisecond,
	})
	if _, err := c.Fetch(context.Background(), peerURL, keyOf("doomed")); err == nil {
		t.Fatal("Fetch against a dead peer succeeded")
	}
	if st := c.Stats(); st.FetchErrors != 3 || st.FetchAttempts != 3 {
		t.Fatalf("stats = %+v, want 3 attempts / 3 errors", st)
	}
}

// TestFetchHonoursContext: a cancelled caller context aborts the retry
// loop mid-backoff instead of finishing the sleeps.
func TestFetchHonoursContext(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	})
	c, peerURL := newTestCluster(t, h, Config{
		FetchAttempts: 10, FetchBaseDelay: 500 * time.Millisecond, FetchMaxDelay: 5 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Fetch(ctx, peerURL, keyOf("cancelled"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Fetch = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > 300*time.Millisecond {
		t.Fatalf("Fetch took %v after cancellation; backoff did not honour ctx", el)
	}
}

// TestFetchInjectedFaults arms cluster.peerfetch: injected errors burn
// attempts (and are retried), never panic the caller.
func TestFetchInjectedFaults(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		fmt.Fprint(w, "ok")
	})
	c, peerURL := newTestCluster(t, h, Config{
		FetchAttempts: 5, FetchBaseDelay: time.Millisecond, FetchMaxDelay: 2 * time.Millisecond,
	})
	plan := faultinject.NewPlan(3)
	plan.Arm(faultinject.PointPeerFetch, faultinject.Spec{Mode: faultinject.ModeError, Probability: 1, Limit: 2})
	faultinject.Enable(plan)
	defer faultinject.Disable()

	body, err := c.Fetch(context.Background(), peerURL, keyOf("faulted"))
	if err != nil || string(body) != "ok" {
		t.Fatalf("Fetch = %q, %v", body, err)
	}
	if fired := plan.Fired(faultinject.PointPeerFetch); fired != 2 {
		t.Fatalf("injected %d faults, want 2", fired)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("peer saw %d calls, want 1 (faults fire before the wire)", got)
	}
}

// TestProbeEvictsAndReinstates: consecutive probe failures evict a peer
// from the ring (its keys reassigned), and recovery reinstates it.
func TestProbeEvictsAndReinstates(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, "ok")
	})
	c, peerURL := newTestCluster(t, mux, Config{ProbeFailures: 2})
	ctx := context.Background()

	c.ProbePeers(ctx)
	if c.AlivePeers() != 2 {
		t.Fatalf("alive = %d, want 2", c.AlivePeers())
	}

	// Find a key the remote peer owns, to watch it move.
	owner := func(k string) string { return c.Owners(k, 1)[0] }
	var remoteKey string
	for i := 0; ; i++ {
		k := keyOf(fmt.Sprintf("probe-%d", i))
		if owner(k) == peerURL {
			remoteKey = k
			break
		}
	}

	healthy.Store(false)
	c.ProbePeers(ctx) // failure 1: below threshold, still in ring
	if c.AlivePeers() != 2 {
		t.Fatal("peer evicted before reaching the failure threshold")
	}
	c.ProbePeers(ctx) // failure 2: evicted
	if c.AlivePeers() != 1 {
		t.Fatal("peer not evicted at the failure threshold")
	}
	if p := owner(remoteKey); p != c.Self() {
		t.Fatalf("evicted peer's key now owned by %s, want self", p)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}

	healthy.Store(true)
	c.ProbePeers(ctx)
	if c.AlivePeers() != 2 {
		t.Fatal("recovered peer not reinstated")
	}
	if p := owner(remoteKey); p != peerURL {
		t.Fatalf("reinstated peer did not get its key back (owner %s)", p)
	}
	if st := c.Stats(); st.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", st.Recoveries)
	}

	st := c.Status()
	if st.Self != c.Self() || len(st.Peers) != 2 {
		t.Fatalf("status = %+v", st)
	}
}
