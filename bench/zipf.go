package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"time"

	"cgct"
	"cgct/internal/server"
	"cgct/internal/store"
	"cgct/internal/trace"
)

// zipfSize is the serve-zipf traffic: keys is the working set, cache the
// memory cache's entry bound (the working set is eight times larger, so
// every tier serves), requests the timed closed-loop requests.
type zipfSize struct {
	keys, ops, cache, requests int
}

const (
	zipfSkew   = 1.1  // Zipf exponent over the working set's keys
	freshShare = 0.05 // share of timed requests for never-seen keys
)

// runServeZipf serves one cgctserve wired like `cgctserve -store`: a
// persistent store that results and compiled traces spill to, two workers
// and a small memory cache. Set-up simulates the working set; the timed
// phase sends Zipf-distributed requests plus a trickle of fresh keys.
func runServeZipf(ctx context.Context, c childConfig, tr *tracer, res *childResult) error {
	size := zipfSize{keys: 256, ops: 5_000, cache: 32, requests: 2_000}
	if c.tiny {
		size = zipfSize{keys: 24, ops: 500, cache: 3, requests: 60}
	}
	dir, err := os.MkdirTemp(c.workdir, "serve-zipf-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	benches := cgct.PaperBenchmarks()
	keyJob := func(i int) job {
		return job{benches[i%len(benches)], cgct.Options{
			OpsPerProc: size.ops, Seed: c.seed<<20 + uint64(i), CGCT: true, RegionBytes: 512,
		}}
	}

	setupStart := time.Now()
	st, err := store.Open(store.Options{Dir: filepath.Join(dir, "store")})
	if err != nil {
		return err
	}
	trace.SetPersistentStore(st)
	defer trace.SetPersistentStore(nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	n := startNode(ln, server.Options{Workers: clients, CacheEntries: size.cache, Store: st}, hc)
	stopped := false
	defer func() {
		if !stopped {
			n.stop()
		}
	}()
	seen := newPayloads()
	setup := make([]outcome, size.keys)
	closedLoop(size.keys, func(i int) { setup[i] = serveOne(ctx, n, keyJob(i)) })
	for i, o := range setup {
		res.Attempted++
		if o.err == nil {
			o.err = seen.record(o, keyJob(i))
		}
		if o.err != nil {
			res.fail(o.err)
		}
	}
	st.Flush() // store-tier reads come from disk, not the write-behind queue
	res.SetupS = time.Since(setupStart).Seconds()

	// The request mix: hot keys differ per seed through the permutation.
	rng := rand.New(rand.NewPCG(c.seed, 0x21bf))
	perm := rng.Perm(size.keys)
	zipf := rand.NewZipf(rng, zipfSkew, 1, uint64(size.keys-1))
	jobs := make([]job, size.requests)
	fresh := size.keys
	for i := range jobs {
		if rng.Float64() < freshShare {
			jobs[i] = keyJob(fresh)
			fresh++
		} else {
			jobs[i] = keyJob(perm[zipf.Uint64()])
		}
	}

	nodes := []*node{n}
	before, err := scrapeAll(ctx, nodes)
	if err != nil {
		return err
	}
	cBefore := readCounters()
	outs := make([]outcome, len(jobs))
	t0 := time.Now()
	closedLoop(len(jobs), func(i int) { outs[i] = serveOne(ctx, n, jobs[i]) })
	wall := time.Since(t0)
	cAfter := readCounters()
	after, err := scrapeAll(ctx, nodes)
	if err != nil {
		return err
	}

	res.MeasuredS = wall.Seconds()
	for i, o := range outs {
		res.Attempted++
		if o.err == nil {
			o.err = seen.record(o, jobs[i])
		}
		if o.err != nil {
			res.fail(o.err)
			continue
		}
		res.Work++
		timed(res, tr, o, uint64(i+1))
	}
	res.setRuntime(cBefore, cAfter)
	tierShares(res, outs)
	promDeltas(res, before, after, phaseTotals(res, outs))

	if tr != nil {
		storeReplay(res, tr, st, outs)
		if err := putReplay(res, tr, filepath.Join(dir, "scratch"), seen); err != nil {
			return err
		}
		httpRTT(ctx, res, n, 200)
	}
	stopped = true
	if err := n.stop(); err != nil {
		res.fail(fmt.Errorf("draining: %w", err))
	}
	keys := sortedKeys(seen.sums)
	seen.verify(res, keys[:min(verifyKeys, len(keys))])
	res.Digest = seen.digest()
	return nil
}

// storeReplay re-reads the store-tier keys straight from the store,
// timing each Store.Get.
func storeReplay(res *childResult, tr *tracer, st *store.Store, outs []outcome) {
	root := tr.newID()
	rootStart := time.Now()
	for _, o := range outs {
		if o.err != nil || o.tier != "store" {
			continue
		}
		t0 := time.Now()
		_, err := st.Get(o.key)
		t1 := time.Now()
		if err != nil {
			res.fail(fmt.Errorf("store replay %.12s: %w", o.key, err))
			continue
		}
		res.sample("store.get_us", float64(t1.Sub(t0).Microseconds()))
		tr.add(span{Parent: root, Layer: "store", Name: "store.Get", Start: t0, End: t1})
	}
	tr.add(span{ID: root, Layer: "bench", Name: "store replay", Start: rootStart, End: time.Now()})
}

// putReplay writes the served payloads into a scratch store, timing each
// Store.Put (which queues the write behind) and the final flush.
func putReplay(res *childResult, tr *tracer, dir string, seen *payloads) error {
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return err
	}
	root := tr.newID()
	rootStart := time.Now()
	for _, k := range sortedKeys(seen.body) {
		t0 := time.Now()
		err := st.Put(k, seen.body[k])
		t1 := time.Now()
		if err != nil {
			res.fail(fmt.Errorf("store put replay: %w", err))
			continue
		}
		res.sample("store.put_us", float64(t1.Sub(t0).Microseconds()))
		tr.add(span{Parent: root, Layer: "store", Name: "store.Put", Start: t0, End: t1})
	}
	t0 := time.Now()
	err = st.Close()
	tr.add(span{Parent: root, Layer: "store", Name: "store.Close", Start: t0, End: time.Now()})
	tr.add(span{ID: root, Layer: "bench", Name: "store put replay", Start: rootStart, End: time.Now()})
	return err
}
