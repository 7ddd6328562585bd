package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"cgct"
	"cgct/internal/cluster"
	"cgct/internal/server"
	"cgct/internal/store"
)

const (
	fleetNodes       = 3
	fleetReplication = 2
)

// fleetNode is one member of the loopback fleet.
type fleetNode struct {
	*node
	st *store.Store
	cl *cluster.Cluster
}

// runServeFleet serves a three-node loopback fleet with R=2 replication
// and one store per node. Set-up simulates every key once, at node
// i mod 3, and waits for replication to settle; the timed phase revisits
// every key once at each of the other two nodes, so results come from a
// replica in the local store or from a peer, with almost no simulation.
func runServeFleet(ctx context.Context, c childConfig, tr *tracer, res *childResult) error {
	keys, ops := 1_000, 1_000
	if c.tiny {
		keys, ops = 12, 500
	}
	dir, err := os.MkdirTemp(c.workdir, "serve-fleet-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	benches := cgct.PaperBenchmarks()
	keyJob := func(i int) job {
		return job{benches[i%len(benches)], cgct.Options{
			OpsPerProc: ops, Seed: c.seed<<20 + uint64(i), CGCT: true, RegionBytes: 512,
		}}
	}

	setupStart := time.Now()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	nodes, err := startFleet(dir, hc)
	defer func() {
		for _, n := range nodes {
			if err := n.stop(); err != nil {
				res.fail(fmt.Errorf("draining %s: %w", n.url, err))
			}
		}
	}()
	if err != nil {
		return err
	}

	seen := newPayloads()
	setup := make([]outcome, keys)
	closedLoop(keys, func(i int) { setup[i] = serveOne(ctx, nodes[i%fleetNodes].node, keyJob(i)) })
	var expected uint64 // replica pushes the set-up simulations owe
	for i, o := range setup {
		res.Attempted++
		if o.err == nil {
			o.err = seen.record(o, keyJob(i))
		}
		if o.err != nil {
			res.fail(o.err)
			continue
		}
		origin := nodes[i%fleetNodes].cl
		for _, p := range origin.Owners(o.key, 0) {
			if p != origin.Self() {
				expected++
			}
		}
	}
	pushes, pushErrs, err := awaitReplication(nodes, expected)
	if err != nil {
		return err
	}
	for _, n := range nodes {
		n.st.Flush()
	}
	res.SetupS = time.Since(setupStart).Seconds()
	res.set("cluster.replication_pushes", float64(pushes))
	res.set("cluster.replication_errors", float64(pushErrs))

	// Every key once at each node other than the one that simulated it,
	// in an order fixed by the seed.
	type visit struct{ key, at int }
	var visits []visit
	for k := 0; k < keys; k++ {
		for d := 1; d < fleetNodes; d++ {
			visits = append(visits, visit{k, (k + d) % fleetNodes})
		}
	}
	rng := rand.New(rand.NewPCG(c.seed, 0xf1ee7))
	rng.Shuffle(len(visits), func(i, j int) { visits[i], visits[j] = visits[j], visits[i] })

	plain := make([]*node, len(nodes))
	for i, n := range nodes {
		plain[i] = n.node
	}
	before, err := scrapeAll(ctx, plain)
	if err != nil {
		return err
	}
	cBefore := readCounters()
	outs := make([]outcome, len(visits))
	t0 := time.Now()
	closedLoop(len(visits), func(i int) {
		v := visits[i]
		outs[i] = serveOne(ctx, nodes[v.at].node, keyJob(v.key))
	})
	wall := time.Since(t0)
	cAfter := readCounters()
	after, err := scrapeAll(ctx, plain)
	if err != nil {
		return err
	}

	res.MeasuredS = wall.Seconds()
	var resims float64
	for i, o := range outs {
		res.Attempted++
		if o.err == nil {
			o.err = seen.record(o, keyJob(visits[i].key))
		}
		if o.err != nil {
			res.fail(o.err)
			continue
		}
		res.Work++
		if o.tier == "sim" {
			resims++
		}
		timed(res, tr, o, uint64(i+1))
	}
	res.set("cluster.resimulations", resims)
	res.setRuntime(cBefore, cAfter)
	tierShares(res, outs)
	promDeltas(res, before, after, phaseTotals(res, outs))

	if tr != nil {
		atNode := make([][]outcome, len(nodes))
		for i, o := range outs {
			at := visits[i].at
			atNode[at] = append(atNode[at], o)
			if o.err == nil && o.tier == "peer" {
				fetchReplay(ctx, res, tr, nodes[at].cl, o.key)
			}
		}
		for i, n := range nodes {
			storeReplay(res, tr, n.st, atNode[i])
		}
		httpRTT(ctx, res, nodes[0].node, 200)
	}
	keyList := sortedKeys(seen.sums)
	seen.verify(res, keyList[:min(verifyKeys, len(keyList))])
	res.Digest = seen.digest()
	return nil
}

// startFleet starts the fleet's nodes, each with its own store and a
// cluster view of all three. On error it returns the nodes already
// started, for the caller to stop.
func startFleet(dir string, hc *http.Client) ([]*fleetNode, error) {
	var lns []net.Listener
	var urls []string
	for i := 0; i < fleetNodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	var nodes []*fleetNode
	for i, ln := range lns {
		st, err := store.Open(store.Options{Dir: filepath.Join(dir, fmt.Sprint("node", i))})
		if err == nil {
			var cl *cluster.Cluster
			cl, err = cluster.New(cluster.Config{Self: urls[i], Peers: urls, Replication: fleetReplication})
			if err == nil {
				n := startNode(ln, server.Options{Workers: clients, Store: st, Cluster: cl}, hc)
				nodes = append(nodes, &fleetNode{node: n, st: st, cl: cl})
				continue
			}
			st.Close()
		}
		for _, l := range lns[i:] {
			l.Close()
		}
		return nodes, err
	}
	return nodes, nil
}

// awaitReplication waits until the fleet has pushed (or failed to push)
// every replica the set-up owes.
func awaitReplication(nodes []*fleetNode, expected uint64) (pushes, errs uint64, err error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		pushes, errs = 0, 0
		for _, n := range nodes {
			s := n.cl.Stats()
			pushes += s.ReplicaPushes
			errs += s.ReplicaPushErrors
		}
		if pushes+errs >= expected {
			return pushes, errs, nil
		}
		if time.Now().After(deadline) {
			return pushes, errs, errors.New("replication did not settle within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fetchReplay fetches key from its first ring owner other than this node,
// timing cluster.Fetch.
func fetchReplay(ctx context.Context, res *childResult, tr *tracer, cl *cluster.Cluster, key string) {
	for _, owner := range cl.Owners(key, 0) {
		if owner == cl.Self() {
			continue
		}
		t0 := time.Now()
		_, err := cl.Fetch(ctx, owner, key)
		t1 := time.Now()
		if err != nil {
			res.fail(fmt.Errorf("fetch replay %.12s from %s: %w", key, owner, err))
			return
		}
		res.sample("cluster.fetch_ms", ms(t1.Sub(t0)))
		tr.add(span{Layer: "cluster", Name: "cluster.Fetch", Start: t0, End: t1})
		return
	}
}
