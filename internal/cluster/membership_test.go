package cluster

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestStopIdempotent: Stop must survive being called twice (the
// manager's drain and a belt-and-braces caller both stop the cluster).
func TestStopIdempotent(t *testing.T) {
	c, err := New(Config{Self: "http://self.invalid:1", ProbeInterval: time.Hour})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.Start()
	c.Start() // idempotent too: one prober, not two
	c.Stop()
	c.Stop() // must not panic on double close
}

func TestStopWithoutStart(t *testing.T) {
	c, err := New(Config{Self: "http://self.invalid:1"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.Stop()
	c.Stop()
}

// TestSelfNormalization: a trailing-slash -self must collapse onto the
// same ring identity as its ParsePeers-normalised spelling, or the node
// joins the ring twice and fetches from itself.
func TestSelfNormalization(t *testing.T) {
	c, err := New(Config{
		Self:  "http://a:8080/",
		Peers: []string{"http://a:8080", "http://b:8080"},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.Self() != "http://a:8080" {
		t.Fatalf("Self = %q, want normalised http://a:8080", c.Self())
	}
	members := c.Members()
	if len(members) != 2 {
		t.Fatalf("members = %v, want exactly [http://a:8080 http://b:8080]", members)
	}
	for _, bad := range []string{"", "ftp://a:1", "http://", "http://a:1/v1", "a:8080"} {
		if _, err := New(Config{Self: bad}); err == nil {
			t.Errorf("New accepted Self=%q", bad)
		}
	}
}

// TestRingOwners: owners returns distinct alive peers in clockwise
// order, degrading with deaths.
func TestRingOwners(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := newRing(peers)
	for i := 0; i < 200; i++ {
		k := keyOf(fmt.Sprintf("owners-%d", i))
		got := r.owners(k, 2)
		if len(got) != 2 || got[0] == got[1] {
			t.Fatalf("owners(%s, 2) = %v", k, got)
		}
		if all := r.owners(k, 99); len(all) != 3 {
			t.Fatalf("owners(want>peers) = %v", all)
		}
	}
	// A dead peer is skipped; its replica role moves clockwise.
	r.setAlive("http://b:1", false)
	for i := 0; i < 200; i++ {
		k := keyOf(fmt.Sprintf("owners-%d", i))
		for _, p := range r.owners(k, 2) {
			if p == "http://b:1" {
				t.Fatal("dead peer listed as an owner")
			}
		}
	}
	r.setAlive("http://a:1", false)
	r.setAlive("http://c:1", false)
	if got := r.owners(keyOf("x"), 2); got != nil {
		t.Fatalf("owners with all dead = %v, want nil", got)
	}
}

// TestClusterOwnersDegradesToSelf: with every peer dead the owner list
// is just self — graceful degradation: with no fleet, every key is ours.
func TestClusterOwnersDegradesToSelf(t *testing.T) {
	c, err := New(Config{Self: "http://self.invalid:1", Peers: []string{"http://peer.invalid:1"}, Replication: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := c.Owners(keyOf("k"), 0); len(got) != 2 {
		t.Fatalf("Owners(R=cfg) = %v, want 2 peers", got)
	}
	c.ring.setAlive("http://self.invalid:1", false)
	c.ring.setAlive("http://peer.invalid:1", false)
	got := c.Owners(keyOf("k"), 0)
	if len(got) != 1 || got[0] != c.Self() {
		t.Fatalf("Owners with all dead = %v, want [self]", got)
	}
}

// TestMembershipIsStatic: membership is Self ∪ Peers, fixed at New. A
// healthy peer whose /v1/cluster/join advertises a URL the node was not
// configured with cannot put that URL on the ring through a probe round.
func TestMembershipIsStatic(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	})
	mux.HandleFunc("POST /v1/cluster/join", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"peers":["http://extra.invalid:1"]}`)
	})
	c, peerURL := newTestCluster(t, mux, Config{})
	c.ProbePeers(context.Background())
	want := []string{peerURL, c.Self()}
	slices.Sort(want)
	if got := c.Members(); !slices.Equal(got, want) {
		t.Fatalf("members after a probe round = %v, want exactly %v", got, want)
	}
	if c.AlivePeers() != 2 {
		t.Fatalf("alive = %d, want 2", c.AlivePeers())
	}
}

// TestReplicate: the digest travels with the payload, successes and
// failures are counted separately, and a 2xx is required.
func TestReplicate(t *testing.T) {
	payload := []byte(`{"cycles":7}`)
	var gotDigest atomic.Value
	var fail atomic.Bool
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut {
			http.Error(w, "method", http.StatusMethodNotAllowed)
			return
		}
		gotDigest.Store(r.Header.Get(DigestHeader))
		if fail.Load() {
			http.Error(w, "disk full", http.StatusInsufficientStorage)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	c, peerURL := newTestCluster(t, h, Config{})
	key := keyOf("replicated")
	if err := c.Replicate(context.Background(), peerURL, key, payload); err != nil {
		t.Fatalf("Replicate: %v", err)
	}
	if d := gotDigest.Load(); d != Digest(payload) {
		t.Fatalf("digest header = %v, want %s", d, Digest(payload))
	}
	fail.Store(true)
	if err := c.Replicate(context.Background(), peerURL, key, payload); err == nil {
		t.Fatal("Replicate against a failing peer succeeded")
	}
	if st := c.Stats(); st.ReplicaPushes != 1 || st.ReplicaPushErrors != 1 {
		t.Fatalf("stats = %+v, want 1 push + 1 error", st)
	}
}

// TestFetchCancelPreservesError: a context cancelled mid-attempt must
// still count the failed attempt and keep the transport error visible
// alongside the cancellation (satellite: cluster.go fetch accounting).
func TestFetchCancelPreservesError(t *testing.T) {
	block := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	})
	defer close(block)
	c, peerURL := newTestCluster(t, h, Config{FetchTimeout: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := c.Fetch(ctx, peerURL, keyOf("cancelled-mid-attempt"))
	if err == nil {
		t.Fatal("Fetch succeeded against a hung peer")
	}
	if !strings.Contains(err.Error(), "/v1/results/") {
		t.Fatalf("underlying transport error lost: %v", err)
	}
	if st := c.Stats(); st.FetchErrors != 1 {
		t.Fatalf("fetch_errors = %d, want 1 (cancelled attempt must count)", st.FetchErrors)
	}
}

// TestProbeRecordsBuildFailure: an unparseable peer URL fails the
// request build; that failure must land in lastErr so the status page
// says why the peer is dead (satellite: probeOne cluster.go).
func TestProbeRecordsBuildFailure(t *testing.T) {
	bad := "http://bad host:1" // space in host: url.Parse inside NewRequest rejects it
	// Config.Peers bypasses the ParsePeers guard, the way a stale config
	// file could.
	c, err := New(Config{Self: "http://self.invalid:1", Peers: []string{"http://self.invalid:1", bad}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.ProbePeers(context.Background())
	st := c.Status()
	found := false
	for _, p := range st.Peers {
		if p.URL == bad {
			found = true
			if p.LastError == "" {
				t.Fatal("request-build failure recorded no lastErr")
			}
			if p.ConsecutiveFailures != 1 {
				t.Fatalf("consecutive_failures = %d, want 1", p.ConsecutiveFailures)
			}
		}
	}
	if !found {
		t.Fatal("malformed peer missing from status")
	}
}
