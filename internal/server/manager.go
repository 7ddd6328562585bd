// Package server exposes the simulator as a long-lived HTTP/JSON service:
// an admission-controlled job queue feeding a bounded worker pool, backed
// by the shared content-addressed result cache (internal/runcache), with
// live job lifecycle (submit / status / result / cancel), service metrics
// and graceful drain. cmd/cgctserve wires it to a listener; the Go client
// lives in internal/server/client.
//
// Request flow:
//
//	POST /v1/jobs ── admission (400 invalid, 503 draining)
//	   ├─ resident in the result cache ──▶ 200, done (cache_hit)
//	   └─ otherwise ─▶ bounded queue (429 when full) ─▶ 202, queued
//	        ─▶ worker pool ─▶ runcache singleflight (an in-flight key is
//	           joined, never recomputed) ─▶ persistent store ─▶ peer fetch
//	           ─▶ simulation ─▶ result
//
// Admission serving reads only the result cache's memory, so it never
// blocks on I/O, a computation or the network; a done job never enters
// the queue.
package server

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"cgct"
	"cgct/internal/cluster"
	"cgct/internal/config"
	"cgct/internal/directory"
	"cgct/internal/faultinject"
	"cgct/internal/metrics"
	"cgct/internal/runcache"
	"cgct/internal/sim"
	"cgct/internal/store"
	"cgct/internal/trace"
	"cgct/internal/workload"
)

// JobState is the lifecycle state of a submitted job.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobRequest is the wire form of a job submission: one simulation, a
// cgct.RunContext call of Benchmark under Options.
type JobRequest struct {
	Benchmark string       `json:"benchmark,omitempty"`
	Options   cgct.Options `json:"options,omitempty"`
	// TimeoutMs overrides the server's default per-job wall-clock deadline
	// (0 = server default; the deadline is an execution property, so it is
	// deliberately NOT part of the result-cache key).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// Request size bounds enforced at admission, before any simulation state
// is allocated: a hostile or fat-fingered config must fail with a 4xx, not
// exhaust server memory.
const (
	maxReqProcessors = 128
	maxReqOpsPerProc = 20_000_000
	maxReqRCASets    = 1 << 22
	// maxReqRCATotalSets bounds processors × rca_sets with CGCT on: every
	// processor's RCA allocates all its ways up front (16 bytes each, two
	// ways a set), so the bound keeps one request's RCAs under 512 MiB.
	maxReqRCATotalSets = 1 << 24
	maxReqBytesParam   = 1 << 20 // RegionBytes, L2SectorBytes
	// maxReqBenchmarkName bounds the benchmark name, which an unknown-name
	// 400 repeats.
	maxReqBenchmarkName = 64
)

// normalize validates the request in place, applies defaults, and returns
// the content-addressed cache key covering everything that determines the
// result: the resolved machine config hash, the workload identity, and the
// seed. Sizes are bounded before any config is resolved, so nothing scales
// with a hostile value first. The hashed text must keep its "sim\x00"
// prefix: stored results and peers' replicas are filed under these keys.
func (r *JobRequest) normalize() (string, error) {
	if r.TimeoutMs < 0 {
		return "", fmt.Errorf("negative timeout_ms %d", r.TimeoutMs)
	}
	o := r.Options
	if o.Processors > maxReqProcessors {
		return "", fmt.Errorf("processors %d exceeds limit %d", o.Processors, maxReqProcessors)
	}
	if o.OpsPerProc > maxReqOpsPerProc {
		return "", fmt.Errorf("ops_per_proc %d exceeds limit %d", o.OpsPerProc, maxReqOpsPerProc)
	}
	if o.RCASets > maxReqRCASets {
		return "", fmt.Errorf("rca_sets %d exceeds limit %d", o.RCASets, maxReqRCASets)
	}
	if o.CGCT {
		def := config.Default()
		procs, sets := uint64(def.Topology.Processors), def.RCA.Sets
		if o.Processors > 0 {
			procs = uint64(o.Processors)
		}
		if o.RCASets > 0 {
			sets = o.RCASets
		}
		if procs*sets > maxReqRCATotalSets {
			return "", fmt.Errorf("processors × rca_sets = %d × %d exceeds limit %d", procs, sets, maxReqRCATotalSets)
		}
	}
	if o.RegionBytes > maxReqBytesParam {
		return "", fmt.Errorf("region_bytes %d exceeds limit %d", o.RegionBytes, maxReqBytesParam)
	}
	if o.L2SectorBytes > maxReqBytesParam {
		return "", fmt.Errorf("l2_sector_bytes %d exceeds limit %d", o.L2SectorBytes, maxReqBytesParam)
	}
	if r.Benchmark == "" {
		return "", errors.New("sim job needs a benchmark")
	}
	if len(r.Benchmark) > maxReqBenchmarkName {
		return "", fmt.Errorf("benchmark name of %d bytes exceeds limit %d", len(r.Benchmark), maxReqBenchmarkName)
	}
	if _, err := workload.Lookup(r.Benchmark); err != nil {
		return "", err
	}
	cfg, o2 := cgct.ResolveConfig(r.Options)
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	r.Options = o2
	h := sha256.New()
	fmt.Fprintf(h, "sim\x00%s\x00%s\x00%+v", r.Benchmark, cfg.Hash(), o2)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// PhaseSpan is the wire form of one phase of a job's lifecycle:
// queued → admitted → trace-compile → simulate → aggregate → finalize
// for a job that led its computation, queued → execute for cache
// followers and jobs served at admission (both spans start at
// submission). Spans are contiguous, so their durations sum to the job's
// total latency.
type PhaseSpan struct {
	Name       string    `json:"name"`
	StartedAt  time.Time `json:"started_at"`
	DurationMs float64   `json:"duration_ms"`
}

// JobStatus is the wire form of a job's lifecycle state.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Key is the job's content address (sha256 of the canonical config) —
	// the handle cluster peers use against GET /v1/results/{key}.
	Key string `json:"key,omitempty"`
	// QueuePosition is the number of queued jobs ahead of this one
	// (present only while queued; 0 = next to run).
	QueuePosition *int `json:"queue_position,omitempty"`
	// CacheHit marks jobs whose result was (or is being) served by the
	// content-addressed cache instead of a fresh simulation: a key resident
	// at submission (the job is done in the submit response itself) or a
	// follower of an in-flight computation.
	CacheHit bool   `json:"cache_hit,omitempty"`
	Error    string `json:"error,omitempty"`
	// FailureKind classifies failed jobs: "panic", "deadline", "watchdog"
	// or "error" (empty unless State is failed).
	FailureKind string `json:"failure_kind,omitempty"`
	// ElapsedMs is the progress clock: time spent queued+running so far,
	// or total latency once terminal.
	ElapsedMs   int64      `json:"elapsed_ms"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// Phases is the job's wall-clock phase breakdown, present once the job
	// is terminal; span durations sum to ElapsedMs.
	Phases []PhaseSpan `json:"phases,omitempty"`
	// ResultSource records where the compute leader's result came from:
	// "sim" (simulated here), "store" (loaded from the persistent store —
	// a warm restart or post-eviction reload) or "peer" (fetched from a
	// ring owner). Empty for jobs served at admission from the cache,
	// followers of an in-flight run, and non-done jobs.
	ResultSource string `json:"result_source,omitempty"`
}

// job is the manager-internal job record. Mutable fields are guarded by
// Manager.mu.
type job struct {
	id      string
	seq     uint64
	request JobRequest
	key     string
	timeout time.Duration // wall-clock deadline; 0 = none
	ctx     context.Context
	cancel  context.CancelCauseFunc
	// runCtx is ctx plus the deadline; it is what the executor runs under.
	// Set by runJob before execution begins.
	runCtx context.Context

	state        JobState
	cacheHit     bool
	resultSource string
	errMsg       string
	failureKind  string
	result       any
	submitted    time.Time
	started      time.Time
	finished     time.Time
	hasStarted   bool

	// Watchdog state, meaningful only while the job is the singleflight
	// compute leader (leading true).
	leading    bool
	progress   *cgct.Progress
	lastEvents uint64
	progressAt time.Time

	// spans are the run phases reported by cgct.RunContext while this job
	// led the computation (empty for cache followers).
	spans []cgct.Span
}

// phases renders the job's contiguous phase breakdown. Terminal jobs
// only; each phase starts where the previous ended, so durations sum to
// the job's total latency exactly. Caller holds Manager.mu.
func (j *job) phases() []PhaseSpan {
	if !j.state.Terminal() || j.finished.IsZero() {
		return nil
	}
	var out []PhaseSpan
	add := func(name string, start, end time.Time) {
		if end.Before(start) {
			end = start
		}
		out = append(out, PhaseSpan{
			Name:       name,
			StartedAt:  start,
			DurationMs: float64(end.Sub(start)) / float64(time.Millisecond),
		})
	}
	if !j.hasStarted {
		add("queued", j.submitted, j.finished) // cancelled before a worker picked it up
		return out
	}
	add("queued", j.submitted, j.started)
	if len(j.spans) == 0 {
		// Cache follower, admission-served job, or a run that failed
		// before phase reporting: one opaque execution span keeps the
		// tiling exact.
		add("execute", j.started, j.finished)
		return out
	}
	add("admitted", j.started, j.spans[0].Start)
	for _, s := range j.spans {
		add(s.Name, s.Start, s.End)
	}
	add("finalize", j.spans[len(j.spans)-1].End, j.finished)
	return out
}

// jobHistory bounds how many terminal job records are retained for
// status queries, pruned oldest-first.
const jobHistory = 4096

// Options configures a Manager. Zero values select sensible defaults.
type Options struct {
	// Workers bounds the worker pool (default GOMAXPROCS).
	Workers int
	// QueueCapacity bounds the admission queue; submissions beyond it get
	// ErrQueueFull (default 64).
	QueueCapacity int
	// CacheEntries bounds the result cache's resident entries, evicted
	// LRU-first (default 1024).
	CacheEntries int
	// DefaultTimeout is the per-job wall-clock deadline applied when a
	// request does not set timeout_ms (0 = no deadline).
	DefaultTimeout time.Duration
	// WatchdogStall force-fails a running sim job whose simulated-event
	// counter has not advanced for this long — a livelock/hang backstop
	// independent of the wall-clock deadline (0 = watchdog disabled).
	WatchdogStall time.Duration
	// Logger receives the manager's structured logs (job lifecycle with
	// job id / config hash / failure kind attrs, watchdog kills, drain).
	// nil discards them — tests and library embedders stay quiet unless
	// they opt in.
	Logger *slog.Logger
	// Store, when set, is the crash-safe persistent store results are
	// spilled to and warm-started from. The manager takes ownership:
	// Drain flushes and closes it. nil disables persistence.
	Store *store.Store
	// Cluster, when set, is the peer-aware routing/fetching layer: the
	// compute path asks the key's owning peer for the result before
	// simulating locally. The manager takes ownership: NewManager starts
	// its health prober, Drain stops it. nil runs standalone.
	Cluster *cluster.Cluster
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueCapacity <= 0 {
		o.QueueCapacity = 64
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 1024
	}
	return o
}

// Sentinel errors mapped to HTTP statuses by the handler layer.
var (
	// ErrQueueFull: the admission queue is at capacity (429).
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining: the server is shutting down (503).
	ErrDraining = errors.New("server: draining, not accepting jobs")
	// ErrNotFound: no such job ID (404).
	ErrNotFound = errors.New("server: no such job")
	// ErrWatchdogStall is the cancellation cause the watchdog uses when it
	// kills a job whose simulation stopped making progress.
	ErrWatchdogStall = errors.New("server: watchdog: no simulation progress")
)

// Manager owns the job queue, the worker pool and the result cache.
type Manager struct {
	opts  Options
	cache *runcache.Cache[any]
	queue chan *job
	stop  chan struct{}
	wg    sync.WaitGroup
	log   *slog.Logger

	// Observability registry and its instruments: the only record of the
	// manager's numbers, served as JSON on /v1/metrics and as Prometheus
	// text on /metrics. Monotonic counts live in lock-free registry
	// counters; point-in-time values (queue depth, busy workers, job
	// states) are registered as funcs reading live manager state.
	reg           *metrics.Registry
	jobsSubmitted *metrics.Counter
	jobsCompleted *metrics.Counter // jobs that reached a terminal state
	panics        *metrics.Counter // panics recovered (worker boundary + compute leaders)
	deadlines     *metrics.Counter // jobs failed by their wall-clock deadline
	watchdogKills *metrics.Counter // jobs killed by the progress watchdog
	jobLatency    *metrics.Histogram

	// Replica pushes run on their own bounded goroutines (replSem caps
	// concurrency) so a slow peer never blocks a worker; Drain waits for
	// replWG so a planned restart finishes its pushes.
	replWG       sync.WaitGroup
	replSem      chan struct{}
	replReceived *metrics.Counter // replica PUTs accepted and stored
	replRejected *metrics.Counter // replica PUTs refused (bad key/digest/body)

	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // terminal job IDs, oldest first, for history pruning
	seq      uint64
	draining bool
	busy     int

	// execute computes one job's result; swappable in tests to control
	// timing without running real simulations.
	execute func(j *job) (any, error)
}

// jobLatencyBuckets are the cgct_job_latency_seconds histogram bounds:
// jobs served at admission land in the sub-millisecond buckets, other
// cache hits in the millisecond ones, real simulations in the
// seconds-to-minutes range, and the deadline/watchdog tail above that.
var jobLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// NewManager builds the manager and starts its worker pool.
func NewManager(o Options) *Manager {
	o = o.withDefaults()
	m := &Manager{
		opts:  o,
		cache: runcache.New[any](o.CacheEntries),
		queue: make(chan *job, o.QueueCapacity),
		stop:  make(chan struct{}),
		jobs:  make(map[string]*job),
		log:   o.Logger,

		replSem: make(chan struct{}, 4),
	}
	if m.log == nil {
		m.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	m.initMetrics()
	m.execute = m.executeCached
	for i := 0; i < o.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	if o.WatchdogStall > 0 {
		m.wg.Add(1)
		go m.watchdog()
	}
	if o.Cluster != nil {
		o.Cluster.Start()
	}
	return m
}

// initMetrics builds the manager's registry: its own counters and the
// live gauges over queue/worker/job state, plus the result cache, the
// process-wide compiled-trace cache, and the simulator's event counter.
func (m *Manager) initMetrics() {
	r := metrics.NewRegistry()
	m.reg = r
	m.jobsSubmitted = r.Counter("cgct_jobs_submitted_total", "jobs admitted past admission control")
	m.jobsCompleted = r.Counter("cgct_jobs_completed_total", "jobs that reached a terminal state")
	m.panics = r.Counter("cgct_panics_recovered_total", "panics converted to job failures")
	m.deadlines = r.Counter("cgct_deadlines_exceeded_total", "jobs failed by their wall-clock deadline")
	m.watchdogKills = r.Counter("cgct_watchdog_kills_total", "jobs killed by the progress watchdog")
	m.jobLatency = r.Histogram("cgct_job_latency_seconds", "submit-to-done latency of successful jobs", jobLatencyBuckets)

	r.GaugeFunc("cgct_queue_depth", "jobs waiting in the admission queue",
		func() float64 { return float64(len(m.queue)) })
	r.GaugeFunc("cgct_queue_capacity", "admission queue capacity",
		func() float64 { return float64(m.opts.QueueCapacity) })
	r.GaugeFunc("cgct_workers", "worker pool size",
		func() float64 { return float64(m.opts.Workers) })
	r.GaugeFunc("cgct_busy_workers", "workers currently executing a job",
		func() float64 { m.mu.Lock(); defer m.mu.Unlock(); return float64(m.busy) })
	r.GaugeFunc("cgct_draining", "1 while the manager is shutting down",
		func() float64 {
			if m.Draining() {
				return 1
			}
			return 0
		})
	for _, state := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		state := state
		r.GaugeFunc("cgct_jobs", "retained job records by lifecycle state",
			func() float64 { return float64(m.countState(state)) },
			metrics.Label{Key: "state", Value: string(state)})
	}
	m.cache.RegisterMetrics(r, "cgct_result_cache")
	trace.RegisterMetrics(r)
	if m.opts.Store != nil {
		m.opts.Store.RegisterMetrics(r, "cgct_store")
	}
	if m.opts.Cluster != nil {
		m.opts.Cluster.RegisterMetrics(r)
	}
	m.replReceived = r.Counter("cgct_replication_received_total", "replica PUTs accepted and spilled to the store")
	m.replRejected = r.Counter("cgct_replication_rejected_total", "replica PUTs refused (bad key, digest mismatch, or invalid body)")
	r.CounterFunc("cgct_sim_events_total", "simulated events executed process-wide, batch granularity",
		func() float64 { return float64(sim.EventsTotal()) })
	for _, t := range []struct {
		kind string
		read func() uint64
	}{
		{"broadcast", func() uint64 { b, _, _, _ := sim.FabricTraffic(); return b }},
		{"direct", func() uint64 { _, d, _, _ := sim.FabricTraffic(); return d }},
		{"local", func() uint64 { _, _, l, _ := sim.FabricTraffic(); return l }},
		{"directory", func() uint64 { _, _, _, m := sim.FabricTraffic(); return m }},
	} {
		read := t.read
		r.CounterFunc("cgct_fabric_messages_total", "coherence-fabric messages by kind, advanced at run completion",
			func() float64 { return float64(read()) },
			metrics.Label{Key: "kind", Value: t.kind})
	}
	r.GaugeFunc("cgct_directory_entries", "live directory entries process-wide",
		func() float64 { return float64(directory.LiveEntries()) })
}

// countState counts retained job records in one lifecycle state.
func (m *Manager) countState(s JobState) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, j := range m.jobs {
		if j.state == s {
			n++
		}
	}
	return n
}

// Registry exposes the manager's metrics registry; the HTTP layer serves
// its Snapshot as JSON on GET /v1/metrics and its Prometheus text on
// GET /metrics.
func (m *Manager) Registry() *metrics.Registry { return m.reg }

// SetExecutorForTest replaces the manager's compute function, bypassing
// the result cache — a deterministic-timing seam for tests (block until
// released, fail on demand). ctx is the job's cancellation context plus
// its deadline, if any. Must be called before any job is submitted.
func (m *Manager) SetExecutorForTest(fn func(ctx context.Context, req JobRequest) (any, error)) {
	m.execute = func(j *job) (any, error) { return fn(j.runCtx, j.request) }
}

// newJobID returns a 128-bit random hex job ID.
func newJobID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: reading randomness: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Submit validates a job and, when its result is resident in the result
// cache, returns it already done. Anything else (an in-flight key, a key
// the store, a peer or a simulation must answer) is enqueued for the
// worker pool. Admission is strictly bounded: a draining manager yields
// ErrDraining, a full queue ErrQueueFull for a job that needs it — never
// a blocked caller or an unbounded goroutine.
//
// Only the memory tier is served here. A store read at admission would
// also answer stored keys without a worker hand-off, but it turns every
// cached request into pure CPU work: under closed-loop load the node then
// saturates its cores and throughput swings with the few requests that
// still simulate (DESIGN.md §9).
func (m *Manager) Submit(req JobRequest) (JobStatus, error) {
	key, err := req.normalize()
	if err != nil {
		return JobStatus{}, err
	}
	if m.Draining() {
		return JobStatus{}, ErrDraining
	}
	timeout := m.opts.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	j := &job{
		id:        newJobID(),
		request:   req,
		key:       key,
		timeout:   timeout,
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		submitted: time.Now(),
	}
	// Get never joins or leads a computation, and counts a hit only for a
	// resident key, so an in-flight key falls through to the queue.
	res, served := m.cache.Get(key)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		cancel(nil)
		return JobStatus{}, ErrDraining
	}
	m.seq++
	j.seq = m.seq
	if served {
		j.result, j.cacheHit = res, true
	} else {
		j.cacheHit = m.cache.Contains(key) // a follower of an in-flight run
		select {
		case m.queue <- j:
		default:
			cancel(nil)
			return JobStatus{}, ErrQueueFull
		}
	}
	m.jobs[j.id] = j
	m.jobsSubmitted.Inc()
	m.log.Info("job submitted",
		"job_id", j.id, "config_hash", shortHash(key),
		"cache_hit", j.cacheHit, "queue_depth", len(m.queue))
	if served {
		// Born done: no queue wait and no run phases, so phases() renders
		// the follower shape [queued, execute].
		j.started, j.hasStarted = j.submitted, true
		m.finishLocked(j, StateDone, "", "")
		cancel(nil)
	}
	return m.statusLocked(j), nil
}

// shortHash abbreviates a content-address for log lines.
func shortHash(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// Status returns the current lifecycle state of a job.
func (m *Manager) Status(id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	return m.statusLocked(j), nil
}

// Result returns a done job's result. ok is false (with the status) when
// the job exists but is not done yet or ended in failure/cancellation.
func (m *Manager) Result(id string) (any, JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, JobStatus{}, ErrNotFound
	}
	return j.result, m.statusLocked(j), nil
}

// Cancel cancels a job: queued jobs terminate immediately, running jobs
// have their context cancelled (the simulator aborts between event
// batches). Cancelling a terminal job is a no-op.
func (m *Manager) Cancel(id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	switch j.state {
	case StateQueued:
		m.finishLocked(j, StateCancelled, "", "cancelled while queued")
		j.cancel(nil)
	case StateRunning:
		j.cancel(nil) // the worker observes ctx and marks the job cancelled
	default:
		// Terminal: cancelling a finished job is a no-op, even when the
		// cancel races the worker's finish — first outcome wins.
	}
	return m.statusLocked(j), nil
}

// statusLocked renders a job's wire status. Caller holds m.mu.
func (m *Manager) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:           j.id,
		State:        j.state,
		Key:          j.key,
		CacheHit:     j.cacheHit,
		ResultSource: j.resultSource,
		Error:        j.errMsg,
		FailureKind:  j.failureKind,
		SubmittedAt:  j.submitted,
	}
	switch {
	case j.state == StateQueued:
		pos := 0
		for _, other := range m.jobs {
			if other.state == StateQueued && other.seq < j.seq {
				pos++
			}
		}
		st.QueuePosition = &pos
		st.ElapsedMs = time.Since(j.submitted).Milliseconds()
	case j.state == StateRunning:
		st.ElapsedMs = time.Since(j.submitted).Milliseconds()
	default:
		st.ElapsedMs = j.finished.Sub(j.submitted).Milliseconds()
	}
	if j.hasStarted {
		t := j.started
		st.StartedAt = &t
	}
	if j.state.Terminal() && !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
		st.Phases = j.phases()
	}
	return st
}

// finishLocked moves a job to a terminal state and records bookkeeping.
// Idempotent: once a job is terminal its outcome is frozen, so a finish
// racing another finish (worker vs. drain) keeps the first. Caller holds
// m.mu.
func (m *Manager) finishLocked(j *job, state JobState, failureKind, errMsg string) {
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.failureKind = failureKind
	j.errMsg = errMsg
	j.finished = time.Now()
	m.jobsCompleted.Inc()
	if state == StateDone {
		m.jobLatency.Observe(j.finished.Sub(j.submitted).Seconds())
	}
	m.finished = append(m.finished, j.id)
	for len(m.finished) > jobHistory {
		delete(m.jobs, m.finished[0])
		m.finished = m.finished[1:]
	}
	m.log.Info("job finished",
		"job_id", j.id, "config_hash", shortHash(j.key),
		"state", string(state), "failure_kind", failureKind, "error", errMsg,
		"cache_hit", j.cacheHit, "elapsed_ms", j.finished.Sub(j.submitted).Milliseconds())
}

// worker is one pool goroutine: it drains the queue until the manager
// stops. The pool size is the only source of compute concurrency.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		default:
		}
		select {
		case <-m.stop:
			return
		case j := <-m.queue:
			m.runJob(j)
		}
	}
}

// runJob executes one dequeued job through the cache.
func (m *Manager) runJob(j *job) {
	m.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		m.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.hasStarted = true
	j.cacheHit = j.cacheHit || m.cache.Contains(j.key)
	m.busy++
	m.mu.Unlock()

	// The deadline clock starts at execution, not admission: time spent
	// queued is the server's fault, not the job's.
	runCtx, cancelRun := j.ctx, context.CancelFunc(func() {})
	if j.timeout > 0 {
		runCtx, cancelRun = context.WithTimeout(j.ctx, j.timeout)
	}
	m.mu.Lock()
	j.runCtx = runCtx
	m.mu.Unlock()

	res, err := m.executeProtected(j)
	cancelRun()

	m.mu.Lock()
	m.busy--
	var pe *runcache.PanicError
	switch {
	case err == nil:
		j.result = res
		m.finishLocked(j, StateDone, "", "")
	case errors.Is(context.Cause(j.ctx), ErrWatchdogStall):
		m.finishLocked(j, StateFailed, "watchdog",
			fmt.Sprintf("killed by watchdog: no simulation progress for %v", m.opts.WatchdogStall))
	case j.ctx.Err() != nil:
		m.finishLocked(j, StateCancelled, "", "cancelled while running")
	case runCtx.Err() != nil:
		m.deadlines.Inc()
		m.finishLocked(j, StateFailed, "deadline",
			fmt.Sprintf("deadline exceeded after %v", j.timeout))
	case errors.As(err, &pe):
		if j.leading {
			// Recovered inside the cache compute fn while this job led it;
			// the worker-boundary recover never saw it, so count it here.
			m.panics.Inc()
		}
		m.finishLocked(j, StateFailed, "panic", pe.Error())
	default:
		m.finishLocked(j, StateFailed, "error", err.Error())
	}
	m.mu.Unlock()
	j.cancel(nil) // release the context's resources
}

// executeProtected runs the executor with the worker-boundary panic guard:
// a panic escaping the executor (including the fault-injection point) is
// converted to a job failure instead of killing the worker goroutine and,
// with it, the process.
func (m *Manager) executeProtected(j *job) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.panics.Inc()
			res, err = nil, runcache.NewPanicError(r)
		}
	}()
	if ferr := faultinject.Fire(faultinject.PointWorker); ferr != nil {
		return nil, ferr
	}
	return m.execute(j)
}

// noteLeading marks j as the singleflight compute leader and allocates
// the progress counter the watchdog polls. Runs on the leader's own
// worker goroutine (the cache invokes fn synchronously).
func (m *Manager) noteLeading(j *job) *cgct.Progress {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.leading = true
	j.spans = nil // a retried leadership starts a fresh phase record
	j.progress = &cgct.Progress{}
	j.lastEvents = 0
	j.progressAt = time.Now()
	return j.progress
}

// recordSpan appends one run phase to the job record; it is the recorder
// RunContext calls from the compute leader's goroutine.
func (m *Manager) recordSpan(j *job, s cgct.Span) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.spans = append(j.spans, s)
}

// executeCached is the default execute: singleflight through the shared
// result cache, so identical configs — concurrent or repeated — cost one
// simulation. A compute leader tries the cheap tiers before simulating:
// the persistent store (a warm restart already has the answer on disk),
// then the key's owning cluster peer (the fleet may have it, or be
// computing it right now — the fetch joins that run). Both tiers are
// strictly optimisations: any failure falls through to local simulation.
func (m *Manager) executeCached(j *job) (any, error) {
	for attempt := 0; ; attempt++ {
		res, err := m.cache.Do(j.runCtx, j.key, func(ctx context.Context) (any, error) {
			p := m.noteLeading(j)
			if ferr := faultinject.Fire(faultinject.PointCacheCompute); ferr != nil {
				return nil, ferr
			}
			if payload, ok := m.storeLoad(j.key); ok {
				m.setResultSource(j, "store")
				return json.RawMessage(payload), nil
			}
			if payload, ok := m.peerFetch(ctx, j.key); ok {
				m.setResultSource(j, "peer")
				m.storeSpill(j.key, payload)
				return json.RawMessage(payload), nil
			}
			ctx = cgct.WithProgress(ctx, p)
			ctx = cgct.WithSpanRecorder(ctx, func(s cgct.Span) { m.recordSpan(j, s) })
			res, err := cgct.RunContext(ctx, j.request.Benchmark, j.request.Options)
			if err == nil {
				m.setResultSource(j, "sim")
				if payload, merr := canonicalResult(res); merr == nil {
					m.storeSpill(j.key, payload)
					m.replicate(j.key, payload)
				}
			}
			return res, err
		})
		// If we were a follower of a leader that got cancelled, timed out
		// or was killed by the watchdog, the error is the leader's, not
		// ours: retry (becoming the new leader).
		if err != nil && j.runCtx.Err() == nil && attempt < 8 &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			continue
		}
		return res, err
	}
}

// setResultSource records where a compute leader's result came from.
func (m *Manager) setResultSource(j *job, src string) {
	m.mu.Lock()
	j.resultSource = src
	m.mu.Unlock()
}

// canonicalResult renders a result's canonical wire bytes: compact JSON.
// A result that arrived as raw JSON (store/peer hit) marshals verbatim,
// so the canonical form of a key is byte-identical on every node that
// holds it, however it got there.
func canonicalResult(res any) ([]byte, error) {
	return json.Marshal(res)
}

// storeLoad tries the persistent store for key's result. A miss, a
// corrupt (quarantined) entry, or a non-JSON payload all report !ok —
// the caller simulates, and correctness never depends on the disk.
func (m *Manager) storeLoad(key string) ([]byte, bool) {
	if m.opts.Store == nil {
		return nil, false
	}
	payload, err := m.opts.Store.Get(key)
	if err != nil || !json.Valid(payload) {
		return nil, false
	}
	return payload, true
}

// storeSpill schedules key's result for durable storage, best-effort.
func (m *Manager) storeSpill(key string, payload []byte) {
	if m.opts.Store == nil {
		return
	}
	if err := m.opts.Store.Put(key, payload); err != nil {
		m.log.Warn("persistent store put failed", "config_hash", shortHash(key), "error", err.Error())
	}
}

// peerFetch asks key's ring owners other than this node — the owner
// first, then the replica holders in clockwise order — for its result,
// so a freshly dead owner costs a fetch against its replica, not a
// re-simulation. It returns the first payload that is valid JSON, so a
// garbled body cannot poison a cache; an authoritative miss on the owner
// may still hit a replica. Reports !ok — and the caller simulates
// locally — when the node is standalone, every listed owner is this node
// itself, nobody has the key, or every fetch fails outright (peer death,
// timeout, injected fault).
func (m *Manager) peerFetch(ctx context.Context, key string) ([]byte, bool) {
	c := m.opts.Cluster
	if c == nil {
		return nil, false
	}
	for _, owner := range c.Owners(key, 0) {
		if owner == c.Self() {
			continue
		}
		if payload, err := c.Fetch(ctx, owner, key); err == nil && json.Valid(payload) {
			m.log.Info("result fetched from peer", "config_hash", shortHash(key), "owner", owner, "bytes", len(payload))
			return payload, true
		}
	}
	return nil, false
}

// replicate pushes a freshly simulated result to the other R−1 ring
// owners for its key, asynchronously on a bounded number of goroutines:
// a slow or dead replica costs background bandwidth, never worker time.
// No-op below R=2 or standalone. Drain waits for in-flight pushes, so a
// planned restart hands its results to the fleet first.
func (m *Manager) replicate(key string, payload []byte) {
	c := m.opts.Cluster
	if c == nil || c.Replication() < 2 {
		return
	}
	for _, peer := range c.Owners(key, 0) {
		if peer == c.Self() {
			continue
		}
		peer := peer
		m.replWG.Add(1)
		m.replSem <- struct{}{}
		go func() {
			defer m.replWG.Done()
			defer func() { <-m.replSem }()
			// Errors are counted and logged inside Replicate; replication is
			// an optimisation, so there is nothing to propagate.
			_ = c.Replicate(context.Background(), peer, key, payload)
		}()
	}
}

// AcceptReplica is the receiving half of replication: validate an
// incoming PUT /v1/results/{key} body and spill it to the local store.
// Everything about the request is untrusted — the key grammar, the size,
// the digest, the JSON — and any mismatch is a counted rejection, so a
// buggy or hostile peer cannot plant bytes under an arbitrary address.
func (m *Manager) AcceptReplica(key, digest string, payload []byte) error {
	reject := func(err error) error {
		m.replRejected.Inc()
		return err
	}
	if err := store.ValidateKey(key); err != nil {
		return reject(err)
	}
	if m.opts.Store == nil {
		return reject(errors.New("server: no persistent store; replica not accepted"))
	}
	if len(payload) > store.MaxPayload {
		return reject(fmt.Errorf("server: replica payload of %d bytes exceeds limit", len(payload)))
	}
	if digest == "" {
		return reject(errors.New("server: replica PUT missing digest header"))
	}
	if got := cluster.Digest(payload); got != digest {
		return reject(fmt.Errorf("server: replica digest mismatch for %s", shortHash(key)))
	}
	if !json.Valid(payload) {
		return reject(errors.New("server: replica payload is not valid JSON"))
	}
	if err := m.opts.Store.Put(key, payload); err != nil {
		return reject(err)
	}
	m.replReceived.Inc()
	m.log.Info("replica accepted", "config_hash", shortHash(key), "bytes", len(payload))
	return nil
}

// ResultPayload serves the canonical result bytes for a content address:
// the resident cache first, then the persistent store. With wait set it
// joins (never leads) an in-flight computation for the key — the seam
// that makes peer fetches cluster-wide singleflight. It never computes;
// a key nobody has yields ErrNotFound, and the remote caller decides to
// simulate. Invalid keys yield store.ErrBadKey (the handler's 400).
func (m *Manager) ResultPayload(ctx context.Context, key string, wait bool) ([]byte, error) {
	if err := store.ValidateKey(key); err != nil {
		return nil, err
	}
	var (
		res any
		ok  bool
	)
	if wait {
		var err error
		res, ok, err = m.cache.Wait(ctx, key)
		if err != nil && ctx.Err() != nil {
			return nil, err
		}
		// A leader that failed is not a result we can serve; fall through
		// to the store, then 404 — the caller simulates.
		if err != nil {
			ok = false
		}
	} else {
		res, ok = m.cache.Peek(key)
	}
	if ok {
		payload, err := canonicalResult(res)
		if err == nil {
			return payload, nil
		}
	}
	if m.opts.Store != nil {
		if payload, err := m.opts.Store.Get(key); err == nil && json.Valid(payload) {
			return payload, nil
		}
	}
	return nil, ErrNotFound
}

// ClusterView is the wire form of GET /v1/cluster.
type ClusterView struct {
	// Enabled is false on a standalone node (no -peers configured); the
	// rest of the view is then omitted.
	Enabled bool `json:"enabled"`
	cluster.Status
}

// ClusterStatus snapshots the node's view of the fleet.
func (m *Manager) ClusterStatus() ClusterView {
	if m.opts.Cluster == nil {
		return ClusterView{}
	}
	return ClusterView{Enabled: true, Status: m.opts.Cluster.Status()}
}

// watchdog periodically scans running compute leaders and force-fails any
// whose simulated-event counter has not moved for opts.WatchdogStall: a
// livelocked or fault-wedged simulation must not hold a worker forever.
func (m *Manager) watchdog() {
	defer m.wg.Done()
	tick := m.opts.WatchdogStall / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-t.C:
			m.mu.Lock()
			for _, j := range m.jobs {
				if j.state != StateRunning || !j.leading {
					continue
				}
				if ev := j.progress.Events(); ev != j.lastEvents {
					j.lastEvents = ev
					j.progressAt = now
					continue
				}
				if now.Sub(j.progressAt) >= m.opts.WatchdogStall && j.ctx.Err() == nil {
					m.watchdogKills.Inc()
					j.cancel(ErrWatchdogStall)
					m.log.Warn("watchdog killed job",
						"job_id", j.id, "config_hash", shortHash(j.key),
						"stalled_for", m.opts.WatchdogStall.String(), "events", j.lastEvents)
				}
			}
			m.mu.Unlock()
		}
	}
}

// Draining reports whether the manager has begun shutting down.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain gracefully shuts the manager down: new submissions are rejected
// with ErrDraining, workers finish their running jobs, and queued jobs are
// cancelled. If ctx expires first, running jobs are force-cancelled (the
// simulator aborts between event batches) and Drain returns ctx's error
// once the workers exit. With the workers gone, the cluster prober is
// stopped and the persistent store's write-behind queue is flushed and
// closed — a planned restart loses nothing, so the next boot warm-starts
// from disk.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	m.mu.Unlock()
	if !already {
		m.log.Info("draining", "queue_depth", len(m.queue))
		close(m.stop)
	}

	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = ctx.Err()
		m.mu.Lock()
		for _, j := range m.jobs {
			if j.state == StateRunning {
				j.cancel(nil)
			}
		}
		m.mu.Unlock()
		<-done // workers return promptly once their contexts die
	}

	// Workers are gone: everything still queued will never run.
	m.mu.Lock()
	for {
		select {
		case j := <-m.queue:
			if j.state == StateQueued {
				m.finishLocked(j, StateCancelled, "", "cancelled by shutdown")
				j.cancel(nil)
			}
			continue
		default:
		}
		break
	}
	m.mu.Unlock()

	// First Drain through: release the cluster and make the store durable.
	// Workers have exited, so nothing races new spills past the flush —
	// and in-flight replica pushes finish first, handing this node's last
	// results to the fleet.
	if !already {
		m.replWG.Wait()
		if c := m.opts.Cluster; c != nil {
			c.Stop()
		}
		if s := m.opts.Store; s != nil {
			if err := s.Close(); err != nil && drainErr == nil {
				drainErr = err
			}
			st := s.Stats()
			m.log.Info("persistent store closed",
				"writes", st.Writes, "write_errors", st.WriteErrors, "pending", st.Pending)
		}
	}
	return drainErr
}
