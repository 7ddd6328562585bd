package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cgct"
	"cgct/internal/cluster"
	"cgct/internal/faultinject"
	"cgct/internal/server"
	"cgct/internal/server/client"
	"cgct/internal/store"
)

// fleetNode is one cgctserve peer in an in-process test cluster: a real
// HTTP listener, its own Manager, its own persistent store directory and
// its own ring view.
type fleetNode struct {
	srv *server.Server
	hs  *httptest.Server
	c   *client.Client
	st  *store.Store
	cl  *cluster.Cluster
	url string
	dir string
}

// kill abruptly terminates the node's listener — in-flight connections
// are severed, not drained — simulating a crashed peer. The node's
// Manager keeps running (its already-accepted jobs must still finish;
// only the network is gone).
func (n *fleetNode) kill() {
	n.hs.CloseClientConnections()
	n.hs.Close()
}

// bootNode brings up one peer behind an already-listening shim server:
// store, cluster over the full peer list (config shaped by mut) and
// Manager; the caller swaps the real handler into the shim.
func bootNode(t *testing.T, node *fleetNode, peers []string, mut ...func(*cluster.Config)) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: node.dir})
	if err != nil {
		t.Fatalf("node %s: opening store: %v", node.url, err)
	}
	cfg := cluster.Config{
		Self:           node.url,
		Peers:          peers,
		FetchTimeout:   500 * time.Millisecond,
		FetchAttempts:  2,
		FetchBaseDelay: 2 * time.Millisecond,
		FetchMaxDelay:  10 * time.Millisecond,
		ProbeInterval:  25 * time.Millisecond,
		ProbeTimeout:   250 * time.Millisecond,
		ProbeFailures:  2,
		HTTPClient:     node.hs.Client(),
	}
	for _, m := range mut {
		m(&cfg)
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("node %s: building cluster: %v", node.url, err)
	}
	node.st = st
	node.cl = cl
	node.srv = server.New(server.Options{
		Workers: 2, QueueCapacity: 256, Store: st, Cluster: cl,
	})
	node.c = client.New(node.url, node.hs.Client()).WithRetry(client.RetryPolicy{
		MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond,
	})
}

// shimServer starts a listener whose handler can be swapped in later,
// breaking the URL-before-server boot cycle.
func shimServer(t *testing.T) (*fleetNode, *atomic.Value) {
	t.Helper()
	slot := new(atomic.Value)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, _ := slot.Load().(http.Handler)
		if h == nil {
			http.Error(w, `{"error":"booting"}`, http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	return &fleetNode{hs: hs, url: hs.URL, dir: t.TempDir()}, slot
}

// startFleet boots n peers that all know each other's URLs. Listeners
// come up first, then each node's store, cluster and Manager. mut lets a
// test reshape every node's cluster config (e.g. turn on replication).
// Cleanup drains every Manager, which stops the probers and flushes +
// closes the stores.
func startFleet(t *testing.T, n int, mut ...func(*cluster.Config)) []*fleetNode {
	t.Helper()
	nodes := make([]*fleetNode, n)
	slots := make([]*atomic.Value, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		nodes[i], slots[i] = shimServer(t)
		urls[i] = nodes[i].url
	}
	for i, node := range nodes {
		bootNode(t, node, urls, mut...)
		slots[i].Store(node.srv.Handler())
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = node.srv.Manager().Drain(ctx)
			cancel()
			node.hs.Close()
		}
	})
	return nodes
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// nodeByURL resolves a ring owner URL back to its in-process node.
func nodeByURL(t *testing.T, nodes []*fleetNode, url string) *fleetNode {
	t.Helper()
	for _, n := range nodes {
		if n.url == url {
			return n
		}
	}
	t.Fatalf("owner %s is not a fleet node", url)
	return nil
}

// clusterView fetches a node's GET /v1/cluster.
func clusterView(t *testing.T, node *fleetNode) server.ClusterView {
	t.Helper()
	resp, err := node.hs.Client().Get(node.url + "/v1/cluster")
	if err != nil {
		t.Fatalf("GET /v1/cluster: %v", err)
	}
	defer resp.Body.Close()
	var v server.ClusterView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding cluster view: %v", err)
	}
	return v
}

// directResult runs the config outside the serving stack and returns its
// canonical JSON — the bit-identity reference for cluster results.
func directResult(t *testing.T, req server.JobRequest) string {
	t.Helper()
	res, err := cgct.RunContext(context.Background(), req.Benchmark, req.Options)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal direct result: %v", err)
	}
	return string(b)
}

// canonicalServedResult re-marshals a result decoded off the wire so it
// can be byte-compared against directResult's form.
func canonicalServedResult(t *testing.T, res cgct.Result) string {
	t.Helper()
	b, err := json.Marshal(&res)
	if err != nil {
		t.Fatalf("marshal served result: %v", err)
	}
	return string(b)
}

// TestClusterChaosPeerDeathMidSweep is the fleet chaos harness: three
// peers, faults armed at the peer-fetch and store read/write boundaries,
// and one peer killed abruptly in the middle of a duplicated sweep.
// Every accepted job — on the survivors and on the corpse — must reach
// "done" with results bit-identical to direct single-node runs: the
// cluster and the store are allowed to cost performance, never
// correctness.
func TestClusterChaosPeerDeathMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-peer chaos run is seconds-long; skipped in -short")
	}
	nodes := startFleet(t, 3)
	ctx := context.Background()

	const seeds = 12
	mkReq := func(seed uint64) server.JobRequest {
		return server.JobRequest{
			Benchmark: "ocean",
			Options:   cgct.Options{OpsPerProc: 2_000, Seed: 7_000 + seed},
		}
	}
	// The bit-identity reference, computed before any fault is armed.
	want := make(map[uint64]string, seeds)
	for s := uint64(0); s < seeds; s++ {
		want[s] = directResult(t, mkReq(s))
	}

	plan := faultinject.NewPlan(23)
	plan.Arm(faultinject.PointPeerFetch, faultinject.Spec{Mode: faultinject.ModeError, Probability: 0.3})
	plan.Arm(faultinject.PointStoreWrite, faultinject.Spec{Mode: faultinject.ModeError, Probability: 0.25})
	plan.Arm(faultinject.PointStoreRead, faultinject.Spec{Mode: faultinject.ModeError, Probability: 0.25})
	faultinject.Enable(plan)
	defer faultinject.Disable()

	type submitted struct {
		node *fleetNode
		id   string
		seed uint64
	}
	var jobs []submitted
	submit := func(node *fleetNode, seed uint64) {
		st, err := node.c.Submit(ctx, mkReq(seed))
		if err != nil {
			t.Fatalf("submit seed %d to %s: %v", seed, node.url, err)
		}
		jobs = append(jobs, submitted{node, st.ID, seed})
	}

	// Wave 1: seed the fleet — every config lands on every node, so
	// followers exercise the peer-fetch tier against owners that either
	// already have the result or are computing it right now.
	for s := uint64(0); s < seeds/2; s++ {
		for _, node := range nodes {
			submit(node, s)
		}
	}

	// Kill node 2 mid-sweep. Its accepted jobs must still finish (the
	// Manager is alive; only the listener died), and the survivors must
	// route around it.
	dead := nodes[2]
	dead.kill()

	// Wave 2: the rest of the sweep on the survivors, re-submitting the
	// duplicated configs plus fresh ones. Fetches routed at the dead peer
	// fail and fall back to local simulation.
	for s := uint64(0); s < seeds; s++ {
		submit(nodes[0], s)
		submit(nodes[1], s)
	}

	// Every job terminal — and done, not failed: injected fetch/store
	// faults and a dead peer degrade performance, never outcomes. The
	// dead node's jobs are polled through its Manager (its HTTP front
	// door is gone).
	for _, jb := range jobs {
		var st server.JobStatus
		var err error
		if jb.node == dead {
			deadline := time.Now().Add(10 * time.Second)
			for {
				st, err = jb.node.srv.Manager().Status(jb.id)
				if err != nil || st.State.Terminal() || time.Now().After(deadline) {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
		} else {
			st, err = jb.node.c.Wait(ctx, jb.id, 2*time.Millisecond)
		}
		if err != nil {
			t.Fatalf("job %s (seed %d, %s): %v", jb.id, jb.seed, jb.node.url, err)
		}
		if st.State != server.StateDone {
			t.Fatalf("job %s (seed %d, %s) ended %q: %s", jb.id, jb.seed, jb.node.url, st.State, st.Error)
		}
	}

	// Bit-identity: every served result equals the direct single-node
	// run, whichever tier (sim, store, peer) produced it.
	bySource := map[string]int{}
	for _, jb := range jobs {
		var res cgct.Result
		if jb.node == dead {
			raw, st, err := jb.node.srv.Manager().Result(jb.id)
			if err != nil || st.State != server.StateDone {
				t.Fatalf("dead-node result %s: %v (%+v)", jb.id, err, st)
			}
			b, err := json.Marshal(raw)
			if err != nil {
				t.Fatalf("marshal dead-node result: %v", err)
			}
			if err := json.Unmarshal(b, &res); err != nil {
				t.Fatalf("decode dead-node result: %v", err)
			}
			bySource[st.ResultSource]++
		} else {
			st, err := jb.node.c.Result(ctx, jb.id, &res)
			if err != nil {
				t.Fatalf("result %s: %v", jb.id, err)
			}
			bySource[st.ResultSource]++
		}
		if got := canonicalServedResult(t, res); got != want[jb.seed] {
			t.Errorf("seed %d via %s: result diverged from direct run\n got: %s\nwant: %s",
				jb.seed, jb.node.url, got, want[jb.seed])
		}
	}
	t.Logf("chaos sweep: %d jobs by result source: %v (peerfetch fired %d, store.write fired %d, store.read fired %d)",
		len(jobs), bySource,
		plan.Fired(faultinject.PointPeerFetch), plan.Fired(faultinject.PointStoreWrite),
		plan.Fired(faultinject.PointStoreRead))

	// The cluster actually clustered: fetch attempts were issued, and at
	// least one result crossed the wire (wave 1 triples every config, so
	// a zero here means the tier is dead code).
	var attempts, hits float64
	for _, node := range nodes[:2] {
		m, err := node.c.Metrics(ctx)
		if err != nil {
			t.Fatalf("metrics %s: %v", node.url, err)
		}
		for _, series := range []string{"cgct_peer_fetch_attempts_total", "cgct_store_hits_total"} {
			if _, ok := m[series]; !ok {
				t.Fatalf("node %s does not expose %s", node.url, series)
			}
		}
		attempts += m["cgct_peer_fetch_attempts_total"]
		hits += m["cgct_peer_fetch_hits_total"]
	}
	if attempts == 0 {
		t.Error("no peer-fetch attempts issued across the fleet")
	}
	if hits == 0 {
		t.Error("no results served peer-to-peer across the sweep")
	}
	if bySource["peer"] == 0 {
		t.Error("no job reported result_source=peer")
	}

	// Failure-domain eviction: the survivors' probers must mark the dead
	// peer down and route its keys elsewhere.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v := clusterView(t, nodes[0])
		evicted := false
		for _, p := range v.Peers {
			if p.URL == dead.url && !p.Alive {
				evicted = true
			}
		}
		if evicted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead peer %s never evicted from node 0's ring: %+v", dead.url, v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterChaosColdRestartWarmStart: a node that simulated a config,
// drained (flushing its store) and came back must serve that config from
// the persistent store — no re-simulation — with the store hit visible
// in metrics and result_source, and the result bit-identical.
func TestClusterChaosColdRestartWarmStart(t *testing.T) {
	dir := t.TempDir()
	req := server.JobRequest{
		Benchmark: "ocean",
		Options:   cgct.Options{OpsPerProc: 2_000, Seed: 8_101},
	}
	ctx := context.Background()

	// First life: simulate, spill, drain.
	st1, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := server.New(server.Options{Workers: 2, QueueCapacity: 8, Store: st1})
	hs1 := httptest.NewServer(srv1.Handler())
	c1 := client.New(hs1.URL, hs1.Client())
	sub, err := c1.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := c1.Wait(ctx, sub.ID, 2*time.Millisecond)
	if err != nil || final.State != server.StateDone {
		t.Fatalf("first life: %+v, %v", final, err)
	}
	if final.ResultSource != "sim" {
		t.Fatalf("first life result_source = %q, want \"sim\"", final.ResultSource)
	}
	var firstRes cgct.Result
	if _, err := c1.Result(ctx, sub.ID, &firstRes); err != nil {
		t.Fatalf("first result: %v", err)
	}
	if err := srv1.Manager().Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	hs1.Close()

	// Second life: same store directory, fresh process state (new
	// Manager, cold result cache). The same config must come off disk.
	st2, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := server.New(server.Options{Workers: 2, QueueCapacity: 8, Store: st2})
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	t.Cleanup(func() { _ = srv2.Manager().Drain(context.Background()) })
	c2 := client.New(hs2.URL, hs2.Client())

	sub2, err := c2.Submit(ctx, req)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if sub2.CacheHit {
		t.Fatal("fresh manager claims a resident cache hit")
	}
	final2, err := c2.Wait(ctx, sub2.ID, 2*time.Millisecond)
	if err != nil || final2.State != server.StateDone {
		t.Fatalf("second life: %+v, %v", final2, err)
	}
	if final2.ResultSource != "store" {
		t.Fatalf("second life result_source = %q, want \"store\" (re-simulated instead of warm-starting)", final2.ResultSource)
	}
	var secondRes cgct.Result
	if _, err := c2.Result(ctx, sub2.ID, &secondRes); err != nil {
		t.Fatalf("second result: %v", err)
	}
	if !reflect.DeepEqual(firstRes, secondRes) {
		t.Errorf("warm-started result diverged:\n first: %+v\nsecond: %+v", firstRes, secondRes)
	}
	m, err := c2.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m["cgct_store_hits_total"] == 0 {
		t.Fatal("store metrics show no hit after warm start")
	}
}

// TestStoreBackedResultEndpoint drives GET /v1/results/{key} — the
// surface peers fetch from: key validation, authoritative 404s, and
// canonical bytes for both resident and store-only results.
func TestStoreBackedResultEndpoint(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{Workers: 2, QueueCapacity: 8, Store: st})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	t.Cleanup(func() { _ = srv.Manager().Drain(context.Background()) })
	c := client.New(hs.URL, hs.Client())
	ctx := context.Background()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := hs.Client().Get(hs.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		buf, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		return resp.StatusCode, buf
	}

	// A key that is not a content address is rejected before it can touch
	// the filesystem.
	if code, _ := get("/v1/results/not-a-key"); code != http.StatusBadRequest {
		t.Fatalf("invalid key: HTTP %d, want 400", code)
	}
	if code, _ := get("/v1/results/" + fmt.Sprintf("%064X", 0xdeadbeef)); code != http.StatusBadRequest {
		t.Fatalf("uppercase-hex key: HTTP %d, want 400", code)
	}
	// A well-formed key nobody has is an authoritative 404 — the endpoint
	// never computes.
	unknown := fmt.Sprintf("%064x", 0xdeadbeef)
	if code, _ := get("/v1/results/" + unknown); code != http.StatusNotFound {
		t.Fatalf("unknown key: HTTP %d, want 404", code)
	}
	before, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := before["cgct_jobs_submitted_total"]; got != 0 {
		t.Fatalf("result endpoint spawned %v jobs", got)
	}

	// Compute something, then fetch it by key.
	sub, err := c.Submit(ctx, tinySim(8_201))
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, sub.ID, 2*time.Millisecond)
	if err != nil || final.State != server.StateDone {
		t.Fatalf("job: %+v, %v", final, err)
	}
	if final.Key == "" {
		t.Fatal("terminal status has no content address")
	}
	code, body := get("/v1/results/" + final.Key)
	if code != http.StatusOK {
		t.Fatalf("known key: HTTP %d, want 200", code)
	}
	var viaKey, viaJob cgct.Result
	if err := json.Unmarshal(body, &viaKey); err != nil {
		t.Fatalf("decoding /v1/results payload: %v", err)
	}
	if _, err := c.Result(ctx, sub.ID, &viaJob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaKey, viaJob) {
		t.Errorf("key-addressed result differs from job result:\n key: %+v\n job: %+v", viaKey, viaJob)
	}

	// ?wait=1 must also serve resident results (the join path's fast
	// case) without leading a computation.
	if code, _ := get("/v1/results/" + final.Key + "?wait=1"); code != http.StatusOK {
		t.Fatalf("wait=1 on resident key: HTTP %d, want 200", code)
	}
	after, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := after["cgct_jobs_submitted_total"]; got != 1 {
		t.Fatalf("result endpoint changed job count: %v", got)
	}
}

// TestClusterChaosKillServedFromReplicas is the replication chaos
// harness: a three-node fleet with R=2 computes a sweep (each config on
// exactly one node), replication settles, one peer is killed — and every
// previously computed key must then be served by the survivors with ZERO
// re-simulations, bit-identical to the direct runs.
func TestClusterChaosKillServedFromReplicas(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-peer chaos run is seconds-long; skipped in -short")
	}
	withR2 := func(c *cluster.Config) { c.Replication = 2 }
	nodes := startFleet(t, 3, withR2)
	ctx := context.Background()

	const seeds = 6
	mkReq := func(seed uint64) server.JobRequest {
		return server.JobRequest{
			Benchmark: "ocean",
			Options:   cgct.Options{OpsPerProc: 2_000, Seed: 9_300 + seed},
		}
	}

	// Warm sweep: each config computed on exactly one node, so after the
	// kill nothing is trivially resident fleet-wide — survival depends on
	// the replicas the computing node pushed.
	type computed struct {
		key  string
		want string
		home int
	}
	sweep := make([]computed, seeds)
	for s := uint64(0); s < seeds; s++ {
		home := int(s) % len(nodes)
		sub, err := nodes[home].c.Submit(ctx, mkReq(s))
		if err != nil {
			t.Fatalf("seed %d: submit: %v", s, err)
		}
		st, err := nodes[home].c.Wait(ctx, sub.ID, 2*time.Millisecond)
		if err != nil || st.State != server.StateDone {
			t.Fatalf("seed %d: %+v, %v", s, st, err)
		}
		if st.Key == "" {
			t.Fatalf("seed %d: done without a content address", s)
		}
		sweep[s] = computed{key: st.Key, want: directResult(t, mkReq(s)), home: home}
	}

	// Replication settled: every ring owner of every key holds it. The
	// pushes are async, so poll.
	waitFor(t, 10*time.Second, "replicas to land on all ring owners", func() bool {
		for _, cfg := range sweep {
			for _, owner := range nodes[0].cl.Owners(cfg.key, 2) {
				if !nodeByURL(t, nodes, owner).st.Has(cfg.key) {
					return false
				}
			}
		}
		return true
	})

	// Kill one peer abruptly; wait until BOTH survivors evict it, so
	// subsequent fetches route only across live replicas.
	dead := nodes[2]
	dead.kill()
	survivors := nodes[:2]
	for _, node := range survivors {
		node := node
		waitFor(t, 10*time.Second, "survivors to evict the dead peer", func() bool {
			for _, p := range clusterView(t, node).Peers {
				if p.URL == dead.url {
					return !p.Alive
				}
			}
			return false
		})
	}

	// Every previously computed key, resubmitted to every survivor, must
	// be served from the surviving copies — result_source anything but
	// "sim" — and bit-identical to the direct run.
	for s, cfg := range sweep {
		for _, node := range survivors {
			sub, err := node.c.Submit(ctx, mkReq(uint64(s)))
			if err != nil {
				t.Fatalf("seed %d resubmit to %s: %v", s, node.url, err)
			}
			st, err := node.c.Wait(ctx, sub.ID, 2*time.Millisecond)
			if err != nil || st.State != server.StateDone {
				t.Fatalf("seed %d resubmit on %s: %+v, %v", s, node.url, st, err)
			}
			if st.ResultSource == "sim" {
				t.Errorf("seed %d re-simulated on %s after peer death (home %d, key %s): replicas lost",
					s, node.url, cfg.home, cfg.key[:8])
			}
			var res cgct.Result
			if _, err := node.c.Result(ctx, sub.ID, &res); err != nil {
				t.Fatalf("seed %d result: %v", s, err)
			}
			if got := canonicalServedResult(t, res); got != cfg.want {
				t.Errorf("seed %d via %s diverged after failover\n got: %s\nwant: %s",
					s, node.url, got, cfg.want)
			}
		}
	}
}

// TestClusterJoinRouteGone: membership is fixed at startup, so a
// clustered node has no join route. POST /v1/cluster/join answers 404 or
// 405 and leaves the membership as configured.
func TestClusterJoinRouteGone(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Self: "http://self.invalid:1", ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{Workers: 1, QueueCapacity: 1, Cluster: cl})
	t.Cleanup(func() { _ = srv.Manager().Drain(context.Background()) })
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := hs.Client().Post(hs.URL+"/v1/cluster/join", "application/json",
		strings.NewReader(`{"peer":"http://extra.invalid:1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/cluster/join: HTTP %d, want 404 or 405", resp.StatusCode)
	}
	if got := cl.Members(); len(got) != 1 || got[0] != cl.Self() {
		t.Fatalf("members = %v, want just self", got)
	}
}

// TestClusterChaosCorruptEntryHealsFromPeer: a bit-flipped replica is
// healed at read time. Node 0 simulates a key and pushes it to node 1;
// node 1's durable copy is corrupted; the same request submitted to node
// 1 then quarantines the entry (evidence preserved), is served from node
// 0's copy without re-simulating, and re-spills the good bytes.
func TestClusterChaosCorruptEntryHealsFromPeer(t *testing.T) {
	nodes := startFleet(t, 2, func(c *cluster.Config) { c.Replication = 2 })
	ctx := context.Background()
	req := server.JobRequest{
		Benchmark: "ocean",
		Options:   cgct.Options{OpsPerProc: 2_000, Seed: 9_500},
	}

	sub, err := nodes[0].c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err := nodes[0].c.Wait(ctx, sub.ID, 2*time.Millisecond)
	if err != nil || st.State != server.StateDone {
		t.Fatalf("job on node 0: %+v, %v", st, err)
	}
	key := st.Key

	// The push to the replica is async; wait for it, then make node 1's
	// copy durable so there is a file to corrupt.
	replica := nodes[1]
	waitFor(t, 10*time.Second, "replica to land on node 1", func() bool {
		return replica.st.Has(key)
	})
	replica.st.Flush()
	good, err := replica.st.Get(key)
	if err != nil {
		t.Fatalf("pre-corruption Get: %v", err)
	}

	// Flip one payload byte of the durable entry in place.
	path := filepath.Join(replica.dir, key[:2], key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading entry to corrupt: %v", err)
	}
	raw[8+2+store.KeyLen+8] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("writing corrupted entry: %v", err)
	}

	sub, err = replica.c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err = replica.c.Wait(ctx, sub.ID, 2*time.Millisecond)
	if err != nil || st.State != server.StateDone {
		t.Fatalf("job on node 1: %+v, %v", st, err)
	}
	if st.ResultSource != "peer" {
		t.Fatalf("result_source = %q, want \"peer\": the corrupt entry must fall through to node 0's copy", st.ResultSource)
	}

	replica.st.Flush()
	healed, err := replica.st.Get(key)
	if err != nil {
		t.Fatalf("Get after heal: %v", err)
	}
	if !bytes.Equal(healed, good) {
		t.Fatalf("re-spilled payload diverged from the original\n got: %s\nwant: %s", healed, good)
	}
	// The rotten bytes are preserved for post-mortem.
	q, err := os.ReadDir(filepath.Join(replica.dir, "quarantine"))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine dir = %v, %v; want exactly one preserved entry", q, err)
	}
	if s := replica.st.Stats(); s.Corruptions != 1 {
		t.Fatalf("store stats after heal: %+v, want 1 corruption", s)
	}
}
