// Package cluster composes single-node cgctserve processes into a
// result-serving fabric. Jobs are content-addressed (sha256 of the
// canonical config), so distribution is routing, not coordination: a
// consistent-hash ring over the peer list assigns each key an owning
// peer, and every peer first attempts a bounded-deadline fetch of a
// result from its owner before simulating locally.
//
// Membership is static: Config.Self plus Config.Peers, fixed when New
// runs. Nothing a peer or client sends can add or remove a member;
// growing a fleet means restarting its nodes with the new peer list.
//
// The cluster is an optimisation layer, never a dependency: every
// failure mode — peer death, timeouts, 5xx, injected faults — degrades
// to local simulation, so a node that has lost every peer still serves
// correct results at single-node speed. Peer health is probed
// continuously and failing peers are evicted from the ring (their keys
// reassigned to the next peer clockwise) until they recover, so a peer
// restarted at its listed URL is reinstated.
//
// Combined with each peer's process-local singleflight and the owner's
// join-in-flight result endpoint, the ring gives cluster-wide
// singleflight for the steady state: N peers asked for the same config
// route to one owner, which computes it once.
package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cgct/internal/faultinject"
	"cgct/internal/metrics"
)

// maxFetchBody bounds a peer-fetch response body; a misbehaving peer
// must not drive an unbounded allocation here.
const maxFetchBody = 256 << 20

// ErrNoResult: the owning peer answered authoritatively that it has no
// result for the key (HTTP 404). Not retried — the caller should
// simulate locally.
var ErrNoResult = errors.New("cluster: owner has no result for key")

// Config configures a Cluster. Zero values take the defaults noted per
// field.
type Config struct {
	// Self is this node's advertised base URL; it is added to Peers if
	// absent and is never probed or fetched from.
	Self string
	// Peers is the static membership: every node's advertised base URL.
	Peers []string
	// Replication is R, the number of distinct ring owners each result is
	// replicated to (default 1 = owner only, no replication). Fetches fall
	// through owner → replicas in ring order before the caller simulates.
	Replication int

	// FetchTimeout bounds each fetch attempt (default 2s); the peer is a
	// shortcut, so the deadline is deliberately short relative to a
	// simulation.
	FetchTimeout time.Duration
	// FetchAttempts is the total tries per Fetch, the first included
	// (default 3).
	FetchAttempts int
	// FetchBaseDelay is the backoff before the first retry (default 50ms,
	// doubling per attempt); FetchMaxDelay caps it (default 1s).
	FetchBaseDelay time.Duration
	FetchMaxDelay  time.Duration

	// ProbeInterval is how often peers are health-checked (default 2s;
	// negative disables the prober — tests drive probes manually).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health check (default 1s).
	ProbeTimeout time.Duration
	// ProbeFailures is how many consecutive failed probes evict a peer
	// from the ring (default 3).
	ProbeFailures int

	// HTTPClient issues fetches and probes (default http.DefaultClient).
	HTTPClient *http.Client
	// Logger receives eviction/recovery and fetch-failure logs; nil
	// discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Replication <= 0 {
		c.Replication = 1
	}
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = 2 * time.Second
	}
	if c.FetchAttempts <= 0 {
		c.FetchAttempts = 3
	}
	if c.FetchBaseDelay <= 0 {
		c.FetchBaseDelay = 50 * time.Millisecond
	}
	if c.FetchMaxDelay <= 0 {
		c.FetchMaxDelay = time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.ProbeFailures <= 0 {
		c.ProbeFailures = 3
	}
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	return c
}

// NormalizeBaseURL parses one advertised base URL into its canonical
// form ("scheme://host[:port]", no trailing slash). Every membership
// entry — flag-parsed peers and Config.Self — goes through this one
// function, so the same node can never sit on the ring under two
// spellings (e.g. with and without a trailing slash, which would make it
// fetch from itself).
func NormalizeBaseURL(raw string) (string, error) {
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return "", errors.New("cluster: empty base URL")
	}
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("cluster: peer %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("cluster: peer %q: scheme must be http or https", raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("cluster: peer %q has no host", raw)
	}
	if (u.Path != "" && u.Path != "/") || u.RawQuery != "" || u.Fragment != "" || u.User != nil {
		return "", fmt.Errorf("cluster: peer %q must be scheme://host[:port] only", raw)
	}
	return u.Scheme + "://" + u.Host, nil
}

// ParsePeers parses a comma-separated peer list ("http://a:8080,
// http://b:8080") into normalised base URLs. Every entry must be an
// absolute http(s) URL with a host and nothing else — a peer URL with a
// path would silently misroute every fetch, so it is rejected here, at
// flag-parsing time.
func ParsePeers(list string) ([]string, error) {
	var out []string
	seen := make(map[string]bool)
	for _, raw := range strings.Split(list, ",") {
		if strings.TrimSpace(raw) == "" {
			continue
		}
		norm, err := NormalizeBaseURL(raw)
		if err != nil {
			return nil, err
		}
		if !seen[norm] {
			seen[norm] = true
			out = append(out, norm)
		}
	}
	return out, nil
}

// peerHealth is one peer's probe state.
type peerHealth struct {
	failures int
	lastErr  string
}

// Cluster is the peer-aware routing and fetching layer one cgctserve
// node runs. Safe for concurrent use.
type Cluster struct {
	cfg  Config
	ring *ring
	log  *slog.Logger
	hc   *http.Client

	mu       sync.Mutex
	health   map[string]*peerHealth // keys fixed at New; values guarded by mu
	stop     chan struct{}
	stopOnce sync.Once
	started  bool
	wg       sync.WaitGroup

	fetchAttempts atomic.Uint64 // HTTP fetch attempts issued
	fetchHits     atomic.Uint64 // fetches that returned a result
	fetchMisses   atomic.Uint64 // authoritative 404s from the owner
	fetchErrors   atomic.Uint64 // attempts failed (timeout, 5xx, transport, injected)
	evictions     atomic.Uint64 // peers evicted from the ring
	recoveries    atomic.Uint64 // peers reinstated after eviction
	replPushes    atomic.Uint64 // replica PUTs that landed on a peer
	replPushErrs  atomic.Uint64 // replica PUTs that failed
}

// New builds a Cluster over the membership Self ∪ Peers. Start launches
// the health prober; a Cluster is usable (Owners/Fetch) without it.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, errors.New("cluster: Config.Self is required")
	}
	// Self goes through the same normaliser as ParsePeers: a raw
	// "-self http://a:8080/" must match the peer list's "http://a:8080",
	// or the node joins its own ring twice under two names and fetches
	// from itself.
	self, err := NormalizeBaseURL(cfg.Self)
	if err != nil {
		return nil, fmt.Errorf("cluster: Config.Self: %w", err)
	}
	cfg.Self = self
	members := cfg.Peers
	found := false
	for _, p := range members {
		if p == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		members = append([]string{cfg.Self}, members...)
	}
	c := &Cluster{
		cfg:    cfg,
		ring:   newRing(members),
		log:    cfg.Logger,
		hc:     cfg.HTTPClient,
		health: make(map[string]*peerHealth),
		stop:   make(chan struct{}),
	}
	if c.log == nil {
		c.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	for _, p := range members {
		if p != cfg.Self {
			c.health[p] = &peerHealth{}
		}
	}
	return c, nil
}

// Self returns this node's advertised URL (normalised).
func (c *Cluster) Self() string { return c.cfg.Self }

// Replication returns R: how many distinct ring owners each result
// should end up on.
func (c *Cluster) Replication() int { return c.cfg.Replication }

// Members returns the full membership (alive and dead), sorted.
func (c *Cluster) Members() []string { return slices.Clone(c.ring.members) }

// Start launches the background health prober (no-op when
// ProbeInterval < 0).
func (c *Cluster) Start() {
	if c.cfg.ProbeInterval < 0 {
		return
	}
	c.mu.Lock()
	already := c.started
	c.started = true
	c.mu.Unlock()
	if already {
		return
	}
	c.wg.Add(1)
	go c.prober()
}

// Stop terminates the prober. Idempotent: the manager's drain and a
// belt-and-braces caller may both Stop without panicking on the second
// close.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Owners resolves the first r distinct alive peers in ring order for
// key: the owner first, then the replica holders. With every peer down
// it degenerates to just self. r <= 0 uses the configured replication
// factor.
func (c *Cluster) Owners(key string, r int) []string {
	if r <= 0 {
		r = c.cfg.Replication
	}
	out := c.ring.owners(key, r)
	if len(out) == 0 {
		return []string{c.cfg.Self}
	}
	return out
}

// backoffDelay computes the sleep before retry attempt (0-based):
// capped exponential with equal jitter, mirroring the HTTP client's
// policy so fleet-internal retries desynchronise the same way
// client-facing ones do.
func (c *Cluster) backoffDelay(attempt int) time.Duration {
	d := c.cfg.FetchBaseDelay << attempt
	if d <= 0 || d > c.cfg.FetchMaxDelay {
		d = c.cfg.FetchMaxDelay
	}
	return d/2 + rand.N(d/2+1)
}

// Fetch attempts to retrieve the result payload for key from the owning
// peer: up to FetchAttempts tries, each under FetchTimeout, with capped
// exponential backoff plus jitter between them. An authoritative 404
// returns ErrNoResult immediately (the owner simply has not computed
// this yet; retrying cannot help and the caller should simulate).
// Timeouts, 5xx and transport errors are retried, then surfaced — the
// caller falls back to local simulation either way, so Fetch failing is
// degraded performance, never a failed job.
func (c *Cluster) Fetch(ctx context.Context, owner, key string) ([]byte, error) {
	var err error
	for attempt := 0; attempt < c.cfg.FetchAttempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(c.backoffDelay(attempt - 1))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
		}
		var body []byte
		body, err = c.fetchOnce(ctx, owner, key)
		switch {
		case err == nil:
			c.fetchHits.Add(1)
			return body, nil
		case errors.Is(err, ErrNoResult):
			c.fetchMisses.Add(1)
			return nil, err
		}
		// Every failed attempt counts, including one aborted by the caller's
		// context dying mid-flight — and the underlying transport error is
		// preserved alongside the cancellation rather than replaced by it.
		c.fetchErrors.Add(1)
		if ctx.Err() != nil {
			return nil, errors.Join(err, ctx.Err())
		}
	}
	c.log.Info("cluster: peer fetch failed, falling back to local simulation",
		"owner", owner, "key", shortKey(key), "error", err.Error())
	return nil, err
}

// fetchOnce issues one bounded fetch against the owner's result
// endpoint. The ?wait=1 parameter asks the owner to join (not lead) an
// in-flight computation for the key, which is what makes the ring's
// singleflight cluster-wide: a config being simulated on its owner
// parks followers from the whole fleet on that one run.
func (c *Cluster) fetchOnce(ctx context.Context, owner, key string) ([]byte, error) {
	c.fetchAttempts.Add(1)
	if err := faultinject.Fire(faultinject.PointPeerFetch); err != nil {
		return nil, err
	}
	fctx, cancel := context.WithTimeout(ctx, c.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodGet, owner+"/v1/results/"+key+"?wait=1", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxFetchBody+1))
		if err != nil {
			return nil, err
		}
		if len(body) > maxFetchBody {
			return nil, fmt.Errorf("cluster: result for %s exceeds %d bytes", shortKey(key), maxFetchBody)
		}
		return body, nil
	case resp.StatusCode == http.StatusNotFound:
		return nil, ErrNoResult
	default:
		return nil, fmt.Errorf("cluster: owner %s returned HTTP %d for %s", owner, resp.StatusCode, shortKey(key))
	}
}

// DigestHeader carries the sha256 of a replica PUT's body, hex-encoded;
// the receiver recomputes and rejects mismatches so a truncated or
// bit-flipped transfer can never land durably under a valid key.
const DigestHeader = "X-Cgct-Digest"

// Digest returns the hex sha256 of a replica payload — the value of
// DigestHeader on the wire.
func Digest(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// Replicate pushes a result payload to one ring owner via
// PUT /v1/results/{key}, carrying the payload digest for end-to-end
// validation. Replication is fire-and-forget bandwidth spent to make
// churn cheap: any failure is counted and logged, never propagated into
// a job outcome.
func (c *Cluster) Replicate(ctx context.Context, peer, key string, payload []byte) error {
	rctx, cancel := context.WithTimeout(ctx, c.cfg.FetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPut, peer+"/v1/results/"+key, bytes.NewReader(payload))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(DigestHeader, Digest(payload))
		var resp *http.Response
		resp, err = c.hc.Do(req)
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if resp.StatusCode/100 != 2 {
				err = fmt.Errorf("cluster: replica %s returned HTTP %d for %s", peer, resp.StatusCode, shortKey(key))
			}
		}
	}
	if err != nil {
		c.replPushErrs.Add(1)
		c.log.Info("cluster: replica push failed", "peer", peer, "key", shortKey(key), "error", err.Error())
		return err
	}
	c.replPushes.Add(1)
	return nil
}

// prober health-checks every peer on a ticker until Stop.
func (c *Cluster) prober() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.ProbePeers(context.Background())
		}
	}
}

// ProbePeers health-checks every peer once, evicting peers past the
// consecutive-failure threshold and reinstating recovered ones. Exported
// so tests (and the chaos harness) can drive health deterministically
// instead of sleeping through prober ticks.
func (c *Cluster) ProbePeers(ctx context.Context) {
	for peer, h := range c.health {
		err := c.probeOne(ctx, peer)
		c.mu.Lock()
		if err == nil {
			h.failures = 0
			h.lastErr = ""
			if !c.ring.isAlive(peer) {
				c.ring.setAlive(peer, true)
				c.recoveries.Add(1)
				c.log.Info("cluster: peer recovered, reinstated in ring", "peer", peer)
			}
		} else {
			h.failures++
			h.lastErr = err.Error()
			if h.failures >= c.cfg.ProbeFailures && c.ring.isAlive(peer) {
				c.ring.setAlive(peer, false)
				c.evictions.Add(1)
				c.log.Warn("cluster: peer evicted from ring",
					"peer", peer, "consecutive_failures", h.failures, "error", h.lastErr)
			}
		}
		c.mu.Unlock()
	}
}

// probeOne issues one health check; a nil error means healthy. A
// malformed peer URL fails every probe the same way, and the error says
// why, so the status page never shows a dead peer without a reason. A
// draining peer answers 503, which counts as unhealthy: a peer that is
// shutting down should stop owning keys before it stops answering
// entirely.
func (c *Cluster) probeOne(ctx context.Context, peer string) error {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, peer+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return nil
}

// PeerStatus is one peer's row in the /v1/cluster status.
type PeerStatus struct {
	URL   string `json:"url"`
	Self  bool   `json:"self,omitempty"`
	Alive bool   `json:"alive"`
	// ConsecutiveFailures is the current failed-probe streak (0 for self
	// and healthy peers).
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	LastError           string `json:"last_error,omitempty"`
}

// Stats is the cluster's monotonic fetch/health counters.
type Stats struct {
	FetchAttempts     uint64
	FetchHits         uint64
	FetchMisses       uint64
	FetchErrors       uint64
	Evictions         uint64
	Recoveries        uint64
	ReplicaPushes     uint64
	ReplicaPushErrors uint64
}

// Status is the wire form of GET /v1/cluster: membership only. The
// counters are the cgct_peer_*, cgct_cluster_* and cgct_replication_push*
// series registered by RegisterMetrics.
type Status struct {
	Self  string       `json:"self"`
	Peers []PeerStatus `json:"peers"`
}

// Stats snapshots the counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		FetchAttempts: c.fetchAttempts.Load(),
		FetchHits:     c.fetchHits.Load(),
		FetchMisses:   c.fetchMisses.Load(),
		FetchErrors:   c.fetchErrors.Load(),
		Evictions:     c.evictions.Load(),
		Recoveries:    c.recoveries.Load(),

		ReplicaPushes:     c.replPushes.Load(),
		ReplicaPushErrors: c.replPushErrs.Load(),
	}
}

// Status snapshots the membership with each peer's health.
func (c *Cluster) Status() Status {
	st := Status{Self: c.cfg.Self}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.ring.members {
		ps := PeerStatus{URL: p, Self: p == c.cfg.Self, Alive: c.ring.isAlive(p)}
		if h, ok := c.health[p]; ok {
			ps.ConsecutiveFailures = h.failures
			ps.LastError = h.lastErr
		}
		st.Peers = append(st.Peers, ps)
	}
	return st
}

// AlivePeers counts ring members currently marked alive (self included).
func (c *Cluster) AlivePeers() int {
	n := 0
	for _, p := range c.ring.members {
		if c.ring.isAlive(p) {
			n++
		}
	}
	return n
}

// RegisterMetrics registers the cluster's counters and membership gauges
// into reg, read live at scrape time.
func (c *Cluster) RegisterMetrics(reg *metrics.Registry) {
	reg.CounterFunc("cgct_peer_fetch_attempts_total", "peer result-fetch HTTP attempts issued",
		func() float64 { return float64(c.fetchAttempts.Load()) })
	reg.CounterFunc("cgct_peer_fetch_hits_total", "results served by a peer instead of local simulation",
		func() float64 { return float64(c.fetchHits.Load()) })
	reg.CounterFunc("cgct_peer_fetch_misses_total", "authoritative owner 404s (key not computed anywhere yet)",
		func() float64 { return float64(c.fetchMisses.Load()) })
	reg.CounterFunc("cgct_peer_fetch_errors_total", "failed peer-fetch attempts (timeout, 5xx, transport, injected)",
		func() float64 { return float64(c.fetchErrors.Load()) })
	reg.CounterFunc("cgct_cluster_evictions_total", "peers evicted from the ring by failed health probes",
		func() float64 { return float64(c.evictions.Load()) })
	reg.CounterFunc("cgct_cluster_recoveries_total", "evicted peers reinstated after recovering",
		func() float64 { return float64(c.recoveries.Load()) })
	reg.GaugeFunc("cgct_cluster_peers_alive", "ring members currently marked alive, self included",
		func() float64 { return float64(c.AlivePeers()) })
	reg.GaugeFunc("cgct_cluster_peers", "configured ring membership size",
		func() float64 { return float64(len(c.ring.members)) })
	reg.CounterFunc("cgct_replication_pushes_total", "result replicas pushed to ring owners",
		func() float64 { return float64(c.replPushes.Load()) })
	reg.CounterFunc("cgct_replication_push_errors_total", "result replica pushes that failed",
		func() float64 { return float64(c.replPushErrs.Load()) })
}

// shortKey abbreviates a content address for log lines.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
