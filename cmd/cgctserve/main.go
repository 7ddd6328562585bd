// Command cgctserve exposes the CGCT simulator as an HTTP/JSON service:
// simulation jobs flow through a bounded admission queue into a bounded
// worker pool, backed by a content-addressed result cache with
// singleflight deduplication. The paper's experiments run with
// cgctexperiments, not here.
//
// Usage:
//
//	cgctserve -addr :8080 -workers 8 -queue 64 -cache 1024
//	cgctserve -store /var/lib/cgct   # crash-safe result/trace spill; warm restarts
//	cgctserve -self http://a:8080 -peers http://a:8080,http://b:8080 -replication 2
//	cgctserve -smoke            # self-test: serve, submit, verify, drain
//
// API (see README "Running the server" for curl examples):
//
//	POST   /v1/jobs            submit {"benchmark":"tpc-w","options":{...}}
//	GET    /v1/jobs/{id}       job state, queue position, timings
//	GET    /v1/jobs/{id}/result  full stats JSON
//	DELETE /v1/jobs/{id}       cancel
//	GET    /v1/results/{key}   result bytes by content address (peer fetching)
//	GET    /v1/cluster         fleet membership (fixed: -self and -peers) and peer health
//	GET    /v1/metrics         every metrics series as JSON (series → value)
//	GET    /metrics            the same series in Prometheus text format
//	GET    /v1/healthz         liveness (503 while draining)
//
// On SIGTERM/SIGINT the server stops admitting work (503), drains running
// jobs up to -drain — flushing the persistent store so the next boot
// warm-starts — then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof listener's mux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cgct"
	"cgct/internal/cluster"
	"cgct/internal/metrics"
	"cgct/internal/server"
	"cgct/internal/server/client"
	"cgct/internal/store"
	"cgct/internal/trace"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "worker pool size (default GOMAXPROCS)")
		queue    = flag.Int("queue", 64, "admission queue capacity (overflow gets 429)")
		cache    = flag.Int("cache", 1024, "result cache capacity, entries (LRU)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
		timeout  = flag.Duration("job-timeout", 30*time.Minute, "per-job wall-clock deadline (0 = none; requests may set a shorter timeout_ms)")
		stall    = flag.Duration("watchdog", 2*time.Minute, "fail a running job whose simulation makes no progress for this long (0 = disabled)")
		smoke    = flag.Bool("smoke", false, "serve on a loopback port, run a client round trip, and exit")
		pprofAt  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
		traceOut = flag.String("trace-out", "", "write completed jobs' phase spans as chrome://tracing JSON to this path on shutdown")
		logFmt   = flag.String("log-format", "text", "structured log encoding on stderr: text or json")
		storeDir = flag.String("store", "", "persistent store directory: results and compiled traces spill here crash-safely and restarts warm-start from it (empty = no persistence)")
		peersStr = flag.String("peers", "", "comma-separated cluster peer base URLs (http://host:port); empty = standalone")
		selfURL  = flag.String("self", "", "this node's advertised base URL, required with -peers")
		replicas = flag.Int("replication", 1, "replicate each result to this many ring owners (1 = owner only)")
	)
	flag.Parse()

	logger, err := buildLogger(*logFmt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	if *pprofAt != "" {
		// A separate listener keeps the profiling endpoints off the public
		// API surface; the blank net/http/pprof import registered them on
		// http.DefaultServeMux.
		go func() {
			if err := http.ListenAndServe(*pprofAt, nil); err != nil {
				logger.Error("pprof listener failed", "addr", *pprofAt, "error", err.Error())
			}
		}()
	}

	opts := server.Options{
		Workers: *workers, QueueCapacity: *queue, CacheEntries: *cache,
		DefaultTimeout: *timeout, WatchdogStall: *stall, Logger: logger,
	}
	if *storeDir != "" {
		st, err := store.Open(store.Options{Dir: *storeDir, Logger: logger})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cgctserve: %v\n", err)
			os.Exit(2)
		}
		opts.Store = st
		// Compiled traces spill into the same store, so a warm restart
		// skips trace compilation as well as simulation.
		trace.SetPersistentStore(st)
		logger.Info("persistent store open", "dir", st.Dir())
	}
	if *peersStr != "" {
		cl, err := buildCluster(*selfURL, *peersStr, *replicas, logger)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cgctserve: %v\n", err)
			os.Exit(2)
		}
		opts.Cluster = cl
		logger.Info("clustered",
			"self", cl.Self(), "members", len(cl.Members()), "replication", *replicas)
	}
	if *smoke {
		if err := runSmoke(opts, *drain, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "smoke: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("smoke: ok")
		return
	}
	if err := serve(*addr, opts, *drain, *traceOut, logger); err != nil {
		logger.Error("server exited", "error", err.Error())
		os.Exit(1)
	}
}

// buildCluster validates -self/-peers and assembles the routing layer.
// Both go through the same normaliser, so a URL that would misroute
// fetches (path, query, userinfo) dies here at startup, not quietly in
// production.
func buildCluster(self, peers string, replication int, logger *slog.Logger) (*cluster.Cluster, error) {
	if self == "" {
		return nil, errors.New("-peers requires -self (this node's advertised base URL)")
	}
	peerList, err := cluster.ParsePeers(peers)
	if err != nil {
		return nil, err
	}
	return cluster.New(cluster.Config{
		Self: self, Peers: peerList, Replication: replication, Logger: logger,
	})
}

// buildLogger constructs the process logger: structured slog on stderr in
// the requested encoding.
func buildLogger(format string) (*slog.Logger, error) {
	switch strings.ToLower(format) {
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("cgctserve: unknown -log-format %q (want text or json)", format)
	}
}

// writeTraceOut dumps the manager's completed-job phase spans as
// chrome://tracing JSON. Called after drain, so every retained job is
// terminal and its span record final.
func writeTraceOut(m *server.Manager, path string, logger *slog.Logger) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		logger.Error("trace-out: create failed", "path", path, "error", err.Error())
		return
	}
	err = m.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		logger.Error("trace-out: write failed", "path", path, "error", err.Error())
		return
	}
	logger.Info("trace-out written", "path", path)
}

// serve runs the server until SIGTERM/SIGINT, then drains and exits.
func serve(addr string, opts server.Options, drainTimeout time.Duration, traceOut string, logger *slog.Logger) error {
	s := server.New(opts)
	hs := &http.Server{Addr: addr, Handler: s.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	logger.Info("listening",
		"addr", addr, "workers", s.Manager().Registry().Snapshot()["cgct_workers"],
		"queue", opts.QueueCapacity, "cache", opts.CacheEntries)

	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-ctx.Done():
	}
	logger.Info("signal received, draining", "deadline", drainTimeout.String())
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := s.Manager().Drain(dctx)              // reject new work, finish running jobs
	shutdownErr := hs.Shutdown(context.Background()) // then close the listener
	writeTraceOut(s.Manager(), traceOut, logger)
	if drainErr != nil {
		return fmt.Errorf("drain: running jobs force-cancelled after %s: %w", drainTimeout, drainErr)
	}
	return shutdownErr
}

// runSmoke is the end-to-end self-test: start on a loopback port, push a
// tiny job through the whole lifecycle with the Go client, verify an
// identical resubmission comes back done from Submit (served from the
// cache at admission) and the Prometheus exposition is live, check the
// job's phase breakdown, and drain (writing -trace-out if set).
func runSmoke(opts server.Options, drainTimeout time.Duration, traceOut string) error {
	s := server.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()

	base := "http://" + ln.Addr().String()
	c := client.New(base, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	fmt.Printf("smoke: serving on %s\n", base)

	if !c.Healthy(ctx) {
		return errors.New("healthz failed")
	}
	req := server.JobRequest{Benchmark: "ocean", Options: cgct.Options{OpsPerProc: 20_000}}
	st, err := c.Submit(ctx, req)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fmt.Printf("smoke: job %s submitted\n", st.ID)
	if st, err = c.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
		return fmt.Errorf("wait: %w", err)
	}
	if st.State != server.StateDone {
		return fmt.Errorf("job ended %q: %s", st.State, st.Error)
	}
	var res cgct.Result
	if _, err := c.Result(ctx, st.ID, &res); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	fmt.Printf("smoke: %s done in %d ms: %d cycles, %d requests\n", st.ID, st.ElapsedMs, res.Cycles, res.Requests)

	// Resubmit the identical config: the resident result must come back
	// done in the submit response itself, with nothing to poll.
	t0 := time.Now()
	st2, err := c.Submit(ctx, req)
	if err != nil {
		return fmt.Errorf("resubmit: %w", err)
	}
	submitLat := time.Since(t0)
	m, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	misses := m["cgct_result_cache_misses_total"]
	if st2.State != server.StateDone || !st2.CacheHit || misses != 1 {
		return fmt.Errorf("resubmission not served at admission: state=%s cache_hit=%t misses=%v",
			st2.State, st2.CacheHit, misses)
	}
	fmt.Printf("smoke: resubmission done at submit in %.3f ms (cache hits %v, misses %v)\n",
		float64(submitLat)/float64(time.Millisecond), m["cgct_result_cache_hits_total"], misses)

	// The leader job must carry the phase breakdown of its run.
	if len(st.Phases) == 0 {
		return errors.New("job status has no phase spans")
	}
	for _, p := range st.Phases {
		fmt.Printf("smoke: phase %-13s %8.2f ms\n", p.Name, p.DurationMs)
	}

	// The Prometheus exposition must parse and expose the same series as
	// the JSON rendering.
	text, err := c.PrometheusMetrics(ctx)
	if err != nil {
		return fmt.Errorf("prometheus metrics: %w", err)
	}
	prom, err := metrics.ParseText(strings.NewReader(text))
	if err != nil {
		return fmt.Errorf("/metrics does not parse: %w", err)
	}
	if len(prom) != len(m) {
		return fmt.Errorf("/metrics has %d series, /v1/metrics %d", len(prom), len(m))
	}
	for series := range m {
		if _, ok := prom[series]; !ok {
			return fmt.Errorf("/metrics lacks %s, which /v1/metrics has", series)
		}
	}
	fmt.Printf("smoke: /metrics and /v1/metrics expose the same %d series\n", len(m))

	dctx, dcancel := context.WithTimeout(context.Background(), drainTimeout)
	defer dcancel()
	if err := s.Manager().Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	writeTraceOut(s.Manager(), traceOut, slog.Default())
	return nil
}
