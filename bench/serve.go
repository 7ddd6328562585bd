package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cgct"
	"cgct/internal/metrics"
	"cgct/internal/server"
	"cgct/internal/server/client"
)

// clients is the closed-loop client count: each client waits for its
// job's result before submitting the next, so at most this many requests
// are in flight.
const clients = 2

// pollEvery is how often a client polls a job's status.
const pollEvery = time.Millisecond

// verifyKeys is how many served keys per run are re-simulated in-process.
const verifyKeys = 8

// node is one in-process cgctserve on a loopback listener.
type node struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	c    *client.Client
	done chan struct{}
}

// startNode serves a new server.Server on ln.
func startNode(ln net.Listener, opts server.Options, hc *http.Client) *node {
	n := &node{
		srv:  server.New(opts),
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	n.hs = &http.Server{Handler: n.srv.Handler()}
	n.c = client.New(n.url, hc)
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return n
}

// stop drains the manager (flushing and closing its store, stopping its
// cluster prober) and closes the listener, waiting for the serve loop.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.srv.Manager().Drain(ctx)
	if cerr := n.hs.Close(); err == nil {
		err = cerr
	}
	<-n.done
	return err
}

// scrape reads the node's Prometheus exposition.
func (n *node) scrape(ctx context.Context) (map[string]float64, error) {
	text, err := n.c.PrometheusMetrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", n.url, err)
	}
	return metrics.ParseText(strings.NewReader(text))
}

// job is one sim job the benchmark submits; its identity is its options.
type job struct {
	bench string
	opts  cgct.Options
}

// outcome is one served request as the client saw it.
type outcome struct {
	err     error
	key     string // content address of the job's result
	tier    string
	start   time.Time
	end     time.Time
	polls   int
	status  server.JobStatus
	payload []byte // compact JSON of the result
	sum     string // sha256 of payload
}

// serveOne submits j to n and polls until its result is received.
func serveOne(ctx context.Context, n *node, j job) outcome {
	o := outcome{start: time.Now()}
	st, err := n.c.Submit(ctx, server.JobRequest{Benchmark: j.bench, Options: j.opts})
	if err != nil {
		o.err = fmt.Errorf("submit %s seed %d: %w", j.bench, j.opts.Seed, err)
		return o
	}
	id := st.ID
	for !st.State.Terminal() {
		time.Sleep(pollEvery)
		o.polls++
		if st, err = n.c.Status(ctx, id); err != nil {
			o.err = fmt.Errorf("status of %s: %w", id, err)
			return o
		}
	}
	if st.State != server.StateDone {
		o.err = fmt.Errorf("job %s seed %d ended %s: %s", j.bench, j.opts.Seed, st.State, st.Error)
		return o
	}
	var raw json.RawMessage
	if _, err := n.c.Result(ctx, st.ID, &raw); err != nil {
		o.err = fmt.Errorf("result of %s: %w", st.ID, err)
		return o
	}
	o.end = time.Now()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		o.err = fmt.Errorf("result of %s: %w", st.ID, err)
		return o
	}
	o.status, o.key, o.payload = st, st.Key, buf.Bytes()
	sum := sha256.Sum256(o.payload)
	o.sum = hex.EncodeToString(sum[:])
	o.tier = st.ResultSource
	if o.tier == "" {
		o.tier = "mem" // served by the memory cache, or joined an in-flight computation
	}
	return o
}

// closedLoop runs do(i) for i in [0, n) from the closed-loop clients.
func closedLoop(n int, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(i)
			}
		}()
	}
	wg.Wait()
}

// payloads checks that every tier and node served one payload per key.
type payloads struct {
	sums map[string]string // key -> sha256 of its payload
	jobs map[string]job    // key -> the job that produced it
	body map[string][]byte // key -> payload, for re-simulation
}

func newPayloads() *payloads {
	return &payloads{sums: map[string]string{}, jobs: map[string]job{}, body: map[string][]byte{}}
}

// record checks o against earlier payloads for its key.
func (p *payloads) record(o outcome, j job) error {
	if prev, ok := p.sums[o.key]; ok {
		if prev != o.sum {
			return fmt.Errorf("key %.12s: %s tier served payload %.12s, earlier %.12s", o.key, o.tier, o.sum, prev)
		}
		return nil
	}
	p.sums[o.key], p.jobs[o.key], p.body[o.key] = o.sum, j, o.payload
	return nil
}

// digest covers the sha256 of every key's payload, in key order.
func (p *payloads) digest() string {
	h := sha256.New()
	for _, k := range sortedKeys(p.sums) {
		fmt.Fprintf(h, "%s %s\n", k, p.sums[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verify re-simulates keys in-process with cgct.Run; each served payload
// must decode to an equal cgct.Result.
func (p *payloads) verify(res *childResult, keys []string) {
	for _, k := range keys {
		j := p.jobs[k]
		res.Attempted++
		want, err := cgct.Run(j.bench, j.opts)
		if err != nil {
			res.fail(fmt.Errorf("re-simulating %s seed %d: %w", j.bench, j.opts.Seed, err))
			continue
		}
		var got cgct.Result
		if err := json.Unmarshal(p.body[k], &got); err != nil {
			res.fail(fmt.Errorf("decoding served %s seed %d: %w", j.bench, j.opts.Seed, err))
			continue
		}
		if !reflect.DeepEqual(&got, want) {
			res.fail(fmt.Errorf("served %s seed %d differs from an in-process cgct.Run", j.bench, j.opts.Seed))
		}
	}
}

// timed accounts one timed request: latency samples by tier, the server's
// phase split, and a traced request's spans.
func timed(res *childResult, tr *tracer, o outcome, traceID uint64) {
	lat := ms(o.end.Sub(o.start))
	res.sample("all", lat)
	res.sample(o.tier, lat)
	var elapsed float64
	for _, p := range o.status.Phases {
		elapsed += p.DurationMs
		if p.Name == "queued" {
			res.sample("queued", p.DurationMs)
		}
	}
	res.sample("elapsed."+o.tier, elapsed)
	if tr == nil {
		return
	}
	// The request span is the client's view; the server's phases are its
	// children, so the client layer's self time is everything the server
	// does not account for: HTTP, polling and decoding.
	id := tr.newID()
	for _, p := range o.status.Phases {
		start := p.StartedAt
		end := start.Add(time.Duration(p.DurationMs * float64(time.Millisecond)))
		tr.add(span{Parent: id, Trace: traceID, Layer: phaseLayer(p.Name), Name: p.Name, Start: start, End: end})
	}
	tr.add(span{ID: id, Trace: traceID, Layer: "client", Name: "request " + o.tier, Start: o.start, End: o.end})
}

// phaseLayer maps a job phase to the module that runs it.
func phaseLayer(phase string) string {
	switch phase {
	case cgct.PhaseTraceCompile:
		return "trace"
	case cgct.PhaseSimulate:
		return "sim"
	case cgct.PhaseAggregate:
		return "cgct"
	default:
		return "server" // queued, admitted, finalize, execute
	}
}

// phaseTotals adds the cgct phase layer metrics over the sim-tier jobs.
func phaseTotals(res *childResult, outs []outcome) (simulate time.Duration) {
	phase := map[string]float64{}
	sims := 0
	for _, o := range outs {
		if o.err != nil || o.tier != "sim" {
			continue
		}
		sims++
		for _, p := range o.status.Phases {
			phase[p.Name] += p.DurationMs
		}
	}
	if sims == 0 {
		return 0
	}
	res.set("cgct.trace_compile_ms", phase[cgct.PhaseTraceCompile]/float64(sims))
	res.set("cgct.simulate_ms", phase[cgct.PhaseSimulate]/float64(sims))
	res.set("cgct.aggregate_ms", phase[cgct.PhaseAggregate]/float64(sims))
	return time.Duration(phase[cgct.PhaseSimulate] * float64(time.Millisecond))
}

// tierShares records which share of the timed requests each tier served,
// and how many status polls a request took.
func tierShares(res *childResult, outs []outcome) {
	counts := map[string]float64{}
	var served, polls float64
	for _, o := range outs {
		if o.err == nil {
			counts[o.tier]++
			served++
			polls += float64(o.polls)
		}
	}
	for _, t := range tiers {
		res.ratio("serve."+t+"_share", counts[t], served, t+"/served")
	}
	res.ratio("client.polls_per_job", polls, served, "polls/jobs")
}

// promDeltas records layer counters from two scrapes of the same nodes'
// /metrics, summed over nodes. A series a node does not expose is absent:
// it never fails the run.
func promDeltas(res *childResult, before, after []map[string]float64, sim time.Duration) {
	sum := func(series string) (float64, bool) {
		var d float64
		found := false
		for i := range after {
			a, okA := after[i][series]
			b, okB := before[i][series]
			if okA && okB {
				d += a - b
				found = true
			}
		}
		return d, found
	}
	// Process-wide series (simulator, trace cache) read the same on every
	// in-process node; take them from the first.
	first := func(series string) (float64, bool) {
		a, okA := after[0][series]
		b, okB := before[0][series]
		return a - b, okA && okB
	}
	for name, series := range map[string]string{
		"sim.events":         "cgct_sim_events_total",
		"sim.broadcasts":     `cgct_fabric_messages_total{kind="broadcast"}`,
		"sim.directs":        `cgct_fabric_messages_total{kind="direct"}`,
		"sim.locals":         `cgct_fabric_messages_total{kind="local"}`,
		"sim.dir_messages":   `cgct_fabric_messages_total{kind="directory"}`,
		"trace.compilations": "cgct_trace_compilations_total",
	} {
		if d, ok := first(series); ok {
			res.set(name, d)
		}
	}
	if ev, ok := first("cgct_sim_events_total"); ok && ev > 0 && sim > 0 {
		res.set("sim.host_ns_per_event", float64(sim.Nanoseconds())/ev)
	}
	if h, ok := first("cgct_trace_cache_hits_total"); ok {
		if m, ok := first("cgct_trace_cache_misses_total"); ok {
			res.ratio("trace.cache_hit_ratio", h, h+m, "hits/lookups")
		}
	}
	if b, ok := after[0]["cgct_trace_cache_bytes"]; ok {
		res.set("trace.resident_mb", b/(1<<20))
	}
	if h, ok := sum("cgct_result_cache_hits_total"); ok {
		if m, ok := sum("cgct_result_cache_misses_total"); ok {
			res.ratio("runcache.hit_ratio", h, h+m, "hits/lookups")
		}
	}
	for name, series := range map[string]string{
		"runcache.evictions": "cgct_result_cache_evictions_total",
		"store.hits":         "cgct_store_hits_total",
		"store.misses":       "cgct_store_misses_total",
		"store.writes":       "cgct_store_writes_total",
	} {
		if d, ok := sum(series); ok {
			res.set(name, d)
		}
	}
	if h, ok := sum("cgct_peer_fetch_hits_total"); ok {
		if a, ok := sum("cgct_peer_fetch_attempts_total"); ok {
			res.ratio("cluster.fetch_hit_ratio", h, a, "hits/attempts")
		}
	}
}

// scrapeAll scrapes every node.
func scrapeAll(ctx context.Context, nodes []*node) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(nodes))
	for i, n := range nodes {
		m, err := n.scrape(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// httpRTT times health checks: the client's round trip with no job work.
func httpRTT(ctx context.Context, res *childResult, n *node, count int) {
	for i := 0; i < count; i++ {
		t0 := time.Now()
		if !n.c.Healthy(ctx) {
			res.fail(errors.New("health check failed"))
			return
		}
		res.sample("client.rtt_us", float64(time.Since(t0).Microseconds()))
	}
}

// newHTTPClient is the benchmark clients' HTTP client: keep-alive
// connections for every client and poller, so requests never wait on a
// fresh TCP handshake.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
}
