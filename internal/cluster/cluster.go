// Package cluster composes single-node cgctserve processes into a
// result-serving fabric. Jobs are content-addressed (sha256 of the
// canonical config), so distribution is routing, not coordination: a
// consistent-hash ring over the peer list assigns each key an owning
// peer, and every peer first attempts a bounded-deadline fetch of a
// result from its owner before simulating locally.
//
// The cluster is an optimisation layer, never a dependency: every
// failure mode — peer death, timeouts, 5xx, injected faults — degrades
// to local simulation, so a node that has lost every peer still serves
// correct results at single-node speed. Peer health is probed
// continuously and failing peers are evicted from the ring (their keys
// reassigned to the next peer clockwise) until they recover.
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
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/url"
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

// Sentinel errors.
var (
	// ErrNoResult: the owning peer answered authoritatively that it has no
	// result for the key (HTTP 404). Not retried — the caller should
	// simulate locally.
	ErrNoResult = errors.New("cluster: owner has no result for key")
	// ErrNoPeers: every peer is marked down; Owner falls back to self.
	ErrNoPeers = errors.New("cluster: no alive peers")
)

// Config configures a Cluster. Zero values take the defaults noted per
// field.
type Config struct {
	// Self is this node's advertised base URL; it is added to Peers if
	// absent and is never probed or fetched from.
	Self string
	// Peers is the static membership: every node's advertised base URL.
	Peers []string
	// Replicas is the number of virtual nodes per peer on the hash ring
	// (default 64).
	Replicas int
	// Replication is R, the number of distinct ring owners each result is
	// replicated to (default 1 = owner only, no replication). Fetches fall
	// through owner → replicas in ring order before the caller simulates.
	Replication int
	// ForgetFailures is how many consecutive failed probes remove a peer
	// from the membership entirely (vnodes deleted) rather than merely
	// marking it dead. 0 disables forgetting: evicted peers stay known and
	// are reinstated on recovery. Must exceed ProbeFailures to be useful —
	// a peer is always evicted before it is forgotten.
	ForgetFailures int

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
	if c.Replicas <= 0 {
		c.Replicas = 64
	}
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
// entry — flag-parsed peers, Config.Self, and URLs arriving through the
// join protocol — goes through this one function, so the same node can
// never sit on the ring under two spellings (e.g. with and without a
// trailing slash, which would make it fetch from itself).
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
	failures  int
	lastProbe time.Time
	lastErr   string
}

// Cluster is the peer-aware routing and fetching layer one cgctserve
// node runs. Safe for concurrent use.
type Cluster struct {
	cfg  Config
	ring *ring
	log  *slog.Logger
	hc   *http.Client

	mu       sync.Mutex
	health   map[string]*peerHealth
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
	peersAdded    atomic.Uint64 // peers added to the membership (join/exchange)
	peersRemoved  atomic.Uint64 // peers forgotten after sustained probe failure
	replPushes    atomic.Uint64 // replica PUTs that landed on a peer
	replPushErrs  atomic.Uint64 // replica PUTs that failed
}

// New builds a Cluster. Start launches the health prober; a Cluster is
// usable (Owner/Fetch) without it.
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
		ring:   newRing(members, cfg.Replicas),
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

// Start launches the background health prober (no-op when
// ProbeInterval < 0; membership may still grow via joins, so an
// initially-solo node probes too).
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

// Owner resolves the alive peer owning key. self is true when the key
// is owned locally — including the degenerate case where every other
// peer is down (graceful degradation: with no fleet, every key is
// ours).
func (c *Cluster) Owner(key string) (peer string, self bool) {
	p, ok := c.ring.owner(key)
	if !ok {
		return c.cfg.Self, true
	}
	return p, p == c.cfg.Self
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

// JoinRequest is the wire body of POST /v1/cluster/join: the joining
// (or gossiping) node's advertised base URL.
type JoinRequest struct {
	Peer string `json:"peer"`
}

// JoinResponse is the reply: the receiver's full membership, so one
// round trip teaches the joiner the whole fleet.
type JoinResponse struct {
	Peers []string `json:"peers"`
}

// AddPeer admits one peer URL into the membership: normalised through
// the same parser as every other entry, deduplicated against self and
// existing members, placed on the ring alive. Reports whether the
// membership actually changed. This is the single mutation point for
// dynamic membership — the join endpoint and the probe-time exchange
// both land here.
func (c *Cluster) AddPeer(raw string) (bool, error) {
	norm, err := NormalizeBaseURL(raw)
	if err != nil {
		return false, err
	}
	if norm == c.cfg.Self {
		return false, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.ring.addPeer(norm) {
		return false, nil
	}
	c.health[norm] = &peerHealth{}
	c.peersAdded.Add(1)
	c.log.Info("cluster: peer joined membership", "peer", norm)
	return true, nil
}

// Members returns the full membership (alive and dead), sorted.
func (c *Cluster) Members() []string { return c.ring.peers() }

// HandleJoin is the server side of POST /v1/cluster/join: admit the
// peer, answer with the full membership. Invalid URLs are the caller's
// 400.
func (c *Cluster) HandleJoin(raw string) ([]string, error) {
	if _, err := c.AddPeer(raw); err != nil {
		return nil, err
	}
	return c.Members(), nil
}

// Join introduces this node to a running fleet through one seed member:
// POST our URL to the seed's join endpoint and merge the membership it
// answers with. Bounded retries with the fetch backoff — a seed that is
// briefly unreachable should not force a fleet restart — then an error;
// the caller decides whether starting standalone is acceptable.
func (c *Cluster) Join(ctx context.Context, seed string) error {
	seedURL, err := NormalizeBaseURL(seed)
	if err != nil {
		return err
	}
	for attempt := 0; attempt < c.cfg.FetchAttempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(c.backoffDelay(attempt - 1))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		}
		var members []string
		members, err = c.exchange(ctx, seedURL)
		if err == nil {
			if _, aerr := c.AddPeer(seedURL); aerr != nil {
				return aerr
			}
			for _, p := range members {
				c.AddPeer(p) // invalid entries from a hostile seed are skipped
			}
			c.log.Info("cluster: joined fleet", "seed", seedURL, "members", len(c.Members()))
			return nil
		}
	}
	return fmt.Errorf("cluster: joining via seed %s: %w", seedURL, err)
}

// exchange posts our URL to one peer's join endpoint and returns the
// membership it advertises — the piggybacked gossip that lets a fleet
// converge on new members without any coordinator.
func (c *Cluster) exchange(ctx context.Context, peer string) ([]string, error) {
	body, err := json.Marshal(JoinRequest{Peer: c.cfg.Self})
	if err != nil {
		return nil, err
	}
	ectx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ectx, http.MethodPost, peer+"/v1/cluster/join", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("cluster: join to %s returned HTTP %d", peer, resp.StatusCode)
	}
	var jr JoinResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&jr); err != nil {
		return nil, err
	}
	if len(jr.Peers) > 4096 {
		return nil, fmt.Errorf("cluster: join response advertises %d peers", len(jr.Peers))
	}
	return jr.Peers, nil
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
// consecutive-failure threshold and reinstating recovered ones. Healthy
// peers also get a membership exchange piggybacked on the probe, so a
// join anywhere in the fleet gossips outward one probe interval per hop.
// Peers past the ForgetFailures threshold are removed from the
// membership entirely. Exported so tests (and the chaos harness) can
// drive membership deterministically instead of sleeping through prober
// ticks.
func (c *Cluster) ProbePeers(ctx context.Context) {
	// Snapshot the membership under the lock: joins and forgets mutate
	// c.health concurrently with a probe round.
	c.mu.Lock()
	peers := make([]string, 0, len(c.health))
	for p := range c.health {
		peers = append(peers, p)
	}
	c.mu.Unlock()
	for _, peer := range peers {
		healthy := c.probeOne(ctx, peer)
		c.mu.Lock()
		h, ok := c.health[peer]
		if !ok { // forgotten while we probed it
			c.mu.Unlock()
			continue
		}
		h.lastProbe = time.Now()
		if healthy {
			h.failures = 0
			h.lastErr = ""
			if !c.ring.isAlive(peer) {
				c.ring.setAlive(peer, true)
				c.recoveries.Add(1)
				c.log.Info("cluster: peer recovered, reinstated in ring", "peer", peer)
			}
		} else {
			h.failures++
			if h.failures >= c.cfg.ProbeFailures && c.ring.isAlive(peer) {
				c.ring.setAlive(peer, false)
				c.evictions.Add(1)
				c.log.Warn("cluster: peer evicted from ring",
					"peer", peer, "consecutive_failures", h.failures, "error", h.lastErr)
			}
			if c.cfg.ForgetFailures > 0 && h.failures >= c.cfg.ForgetFailures {
				c.ring.removePeer(peer)
				delete(c.health, peer)
				c.peersRemoved.Add(1)
				c.log.Warn("cluster: peer forgotten after sustained failure",
					"peer", peer, "consecutive_failures", h.failures)
			}
		}
		c.mu.Unlock()
		if healthy {
			// Gossip: swap membership with the healthy peer. Best-effort — an
			// older peer without the endpoint, or a flaky network, just means
			// this round taught us nothing.
			if members, err := c.exchange(ctx, peer); err == nil {
				for _, p := range members {
					c.AddPeer(p)
				}
			}
		}
	}
}

// setLastErr records a probe failure reason, tolerating the peer having
// been forgotten between the probe and the record.
func (c *Cluster) setLastErr(peer, msg string) {
	c.mu.Lock()
	if h, ok := c.health[peer]; ok {
		h.lastErr = msg
	}
	c.mu.Unlock()
}

// probeOne issues one health check. A draining peer answers 503, which
// counts as unhealthy: a peer that is shutting down should stop owning
// keys before it stops answering entirely.
func (c *Cluster) probeOne(ctx context.Context, peer string) bool {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, peer+"/v1/healthz", nil)
	if err != nil {
		// A malformed peer URL fails every probe the same way; the status
		// page must say why, not show an empty lastErr forever.
		c.setLastErr(peer, err.Error())
		return false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.setLastErr(peer, err.Error())
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.setLastErr(peer, fmt.Sprintf("HTTP %d", resp.StatusCode))
		return false
	}
	return true
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

// Stats is the cluster's monotonic fetch/membership counters.
type Stats struct {
	FetchAttempts     uint64
	FetchHits         uint64
	FetchMisses       uint64
	FetchErrors       uint64
	Evictions         uint64
	Recoveries        uint64
	PeersAdded        uint64
	PeersRemoved      uint64
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

		PeersAdded:        c.peersAdded.Load(),
		PeersRemoved:      c.peersRemoved.Load(),
		ReplicaPushes:     c.replPushes.Load(),
		ReplicaPushErrors: c.replPushErrs.Load(),
	}
}

// Status snapshots the membership with each peer's health.
func (c *Cluster) Status() Status {
	st := Status{Self: c.cfg.Self}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.ring.peers() {
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
	for _, p := range c.ring.peers() {
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
		func() float64 { return float64(len(c.ring.peers())) })
	reg.CounterFunc("cgct_cluster_peers_added_total", "peers admitted to the membership via join or gossip",
		func() float64 { return float64(c.peersAdded.Load()) })
	reg.CounterFunc("cgct_cluster_peers_removed_total", "peers forgotten after sustained probe failure",
		func() float64 { return float64(c.peersRemoved.Load()) })
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
