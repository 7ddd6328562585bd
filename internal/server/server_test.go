package server_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cgct"
	"cgct/internal/server"
	"cgct/internal/server/client"
	"cgct/internal/trace"
)

// tinySim is a fast real-simulation request (~milliseconds).
func tinySim(seed uint64) server.JobRequest {
	return server.JobRequest{Benchmark: "ocean", Options: cgct.Options{OpsPerProc: 2_000, Seed: seed}}
}

// newTestServer starts an httptest server and returns it with a client.
func newTestServer(t *testing.T, o server.Options) (*server.Server, *client.Client) {
	t.Helper()
	s := server.New(o)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Manager().Drain(ctx)
	})
	return s, client.New(hs.URL, hs.Client())
}

// snap reads every series of the manager's metrics registry — what
// /v1/metrics and /metrics serve — keyed as exposed.
func snap(s *server.Server) map[string]float64 { return s.Manager().Registry().Snapshot() }

// waitState polls until job id reaches state (or the test times out).
func waitState(t *testing.T, c *client.Client, id string, want server.JobState) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job reached %q (err %q) while waiting for %q", st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for state %q", want)
	return server.JobStatus{}
}

func TestJobRoundTrip(t *testing.T) {
	_, c := newTestServer(t, server.Options{Workers: 2, QueueCapacity: 8})
	ctx := context.Background()
	st, err := c.Submit(ctx, tinySim(1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.ID == "" || st.State != server.StateQueued {
		t.Fatalf("initial status = %+v", st)
	}
	final, err := c.Wait(ctx, st.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != server.StateDone {
		t.Fatalf("final state = %q (err %q)", final.State, final.Error)
	}
	var res cgct.Result
	if _, err := c.Result(ctx, st.ID, &res); err != nil {
		t.Fatalf("result: %v", err)
	}
	if res.Benchmark != "ocean" || res.Cycles == 0 || res.Instructions == 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if final.FinishedAt == nil || final.StartedAt == nil {
		t.Fatal("missing timestamps on terminal status")
	}
}

func TestCacheHitNoSecondSimulation(t *testing.T) {
	s, c := newTestServer(t, server.Options{Workers: 2, QueueCapacity: 8})
	ctx := context.Background()
	first, err := c.Submit(ctx, tinySim(7))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := c.Wait(ctx, first.ID, time.Millisecond); st.State != server.StateDone {
		t.Fatalf("first run: %+v", st)
	}
	missesAfterFirst := snap(s)["cgct_result_cache_misses_total"]

	second, err := c.Submit(ctx, tinySim(7)) // identical config + seed
	if err != nil {
		t.Fatal(err)
	}
	st, _ := c.Wait(ctx, second.ID, time.Millisecond)
	if st.State != server.StateDone {
		t.Fatalf("second run: %+v", st)
	}
	if !st.CacheHit {
		t.Error("repeat of an identical config not marked cache_hit")
	}
	m := snap(s)
	if got := m["cgct_result_cache_misses_total"]; got != missesAfterFirst {
		t.Fatalf("second simulation ran: misses %v -> %v", missesAfterFirst, got)
	}
	if m["cgct_result_cache_hits_total"] == 0 {
		t.Fatal("no cache hit recorded")
	}

	// A different seed is a different key: must miss.
	third, err := c.Submit(ctx, tinySim(8))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := c.Wait(ctx, third.ID, time.Millisecond); st.State != server.StateDone {
		t.Fatalf("third run: %+v", st)
	}
	if got := snap(s)["cgct_result_cache_misses_total"]; got != missesAfterFirst+1 {
		t.Fatalf("distinct config should miss: misses = %v, want %v", got, missesAfterFirst+1)
	}
}

// blockingExecute replaces the manager's compute with one that parks until
// released (or the job's context dies), for deterministic timing tests.
func blockingExecute(m *server.Manager) (release chan struct{}, started *atomic.Int32) {
	release = make(chan struct{})
	started = &atomic.Int32{}
	m.SetExecutorForTest(func(ctx context.Context, _ server.JobRequest) (any, error) {
		started.Add(1)
		select {
		case <-release:
			return "stub-result", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	return release, started
}

func TestQueueOverflow429(t *testing.T) {
	s, c := newTestServer(t, server.Options{Workers: 1, QueueCapacity: 2})
	release, _ := blockingExecute(s.Manager())
	ctx := context.Background()

	// Occupy the single worker, then fill the queue.
	first, err := c.Submit(ctx, tinySim(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, first.ID, server.StateRunning)
	accepted := []string{first.ID}
	for i := uint64(2); len(accepted) < 3; i++ { // 1 running + 2 queued = capacity
		st, err := c.Submit(ctx, tinySim(i))
		if err != nil {
			t.Fatalf("submit %d within capacity: %v", i, err)
		}
		accepted = append(accepted, st.ID)
	}

	// Now submit 2x queue capacity beyond: every one must get 429.
	var rejections int
	for i := uint64(100); i < 104; i++ {
		_, err := c.Submit(ctx, tinySim(i))
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("overflow submission %d: err = %v, want APIError", i, err)
		}
		if apiErr.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overflow status = %d, want 429", apiErr.StatusCode)
		}
		if apiErr.RetryAfter == "" {
			t.Error("429 without Retry-After header")
		}
		rejections++
	}
	if rejections != 4 {
		t.Fatalf("rejections = %d", rejections)
	}

	// Queue-position reporting: the last accepted job has one job ahead.
	st, err := c.Status(ctx, accepted[2])
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateQueued || st.QueuePosition == nil || *st.QueuePosition != 1 {
		t.Fatalf("queued status = %+v, want queue_position 1", st)
	}
	if m := snap(s); m["cgct_queue_depth"] != 2 || m["cgct_busy_workers"] != 1 || m["cgct_workers"] != 1 {
		t.Fatalf("metrics during saturation: queue depth %v, busy %v of %v workers",
			m["cgct_queue_depth"], m["cgct_busy_workers"], m["cgct_workers"])
	}

	// Release: everything accepted must finish.
	close(release)
	for _, id := range accepted {
		if st, _ := c.Wait(ctx, id, time.Millisecond); st.State != server.StateDone {
			t.Fatalf("accepted job %s ended %q", id, st.State)
		}
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	s, c := newTestServer(t, server.Options{Workers: 1, QueueCapacity: 4})
	release, _ := blockingExecute(s.Manager())
	defer close(release)
	ctx := context.Background()

	running, err := c.Submit(ctx, tinySim(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, running.ID, server.StateRunning)
	queued, err := c.Submit(ctx, tinySim(2))
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued job: immediate.
	st, err := c.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateCancelled {
		t.Fatalf("queued cancel -> %q", st.State)
	}

	// Cancel the running job: its context aborts the (stub) simulation.
	if _, err := c.Cancel(ctx, running.ID); err != nil {
		t.Fatal(err)
	}
	st = waitState(t, c, running.ID, server.StateCancelled)
	if st.Error == "" {
		t.Error("cancelled running job should carry an explanation")
	}

	// Cancelling a terminal job is a no-op.
	if st, err = c.Cancel(ctx, running.ID); err != nil || st.State != server.StateCancelled {
		t.Fatalf("re-cancel: %+v, %v", st, err)
	}
}

// TestCancelMidRealSimulation exercises the context plumbing end to end:
// a genuinely running cgct simulation aborts on DELETE.
func TestCancelMidRealSimulation(t *testing.T) {
	_, c := newTestServer(t, server.Options{Workers: 1, QueueCapacity: 2})
	ctx := context.Background()
	st, err := c.Submit(ctx, server.JobRequest{
		Benchmark: "ocean",
		Options:   cgct.Options{OpsPerProc: 20_000_000}, // minutes of work if not cancelled
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, server.StateRunning)
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	final := waitState(t, c, st.ID, server.StateCancelled)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if final.State != server.StateCancelled {
		t.Fatalf("final = %+v", final)
	}
}

// TestDeadlineAndDrainStopRealSimulation: a job's deadline and a forced
// drain stop a genuinely running cgct simulation, not just a test
// executor. The job's processors × ops exceed trace.MaxSharedOps, so
// nothing is compiled up front: the workload generates live, and a run
// that is not stopped would take minutes.
func TestDeadlineAndDrainStopRealSimulation(t *testing.T) {
	big := func(seed uint64) server.JobRequest {
		return server.JobRequest{Benchmark: "tpc-b",
			Options: cgct.Options{Processors: 16, OpsPerProc: 2_500_000, CGCT: true, Seed: seed}}
	}
	if o := big(0).Options; o.Processors*o.OpsPerProc <= trace.MaxSharedOps {
		t.Fatalf("%d × %d ops would be compiled up front", o.Processors, o.OpsPerProc)
	}
	const limit = 5 * time.Second
	ctx := context.Background()

	_, c := newTestServer(t, server.Options{Workers: 1, QueueCapacity: 2})
	req := big(1)
	req.TimeoutMs = 100
	start := time.Now()
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	deadlineTook := time.Since(start)
	if final.State != server.StateFailed || final.FailureKind != "deadline" || deadlineTook > limit {
		t.Fatalf("100 ms deadline: job ended %q (%q) after %v, want failed/deadline within %v",
			final.State, final.FailureKind, deadlineTook, limit)
	}

	s2, c2 := newTestServer(t, server.Options{Workers: 1, QueueCapacity: 2})
	st, err = c2.Submit(ctx, big(2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c2, st.ID, server.StateRunning)
	dctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	start = time.Now()
	if err := s2.Manager().Drain(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want deadline exceeded", err)
	}
	drainTook := time.Since(start)
	if final, err = c2.Status(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if final.State != server.StateCancelled || drainTook > limit {
		t.Fatalf("forced drain returned after %v with the job %q, want cancelled within %v", drainTook, final.State, limit)
	}
	t.Logf("deadline job ended after %v; forced drain returned after %v", deadlineTook, drainTook)
}

func TestGracefulDrain(t *testing.T) {
	s, c := newTestServer(t, server.Options{Workers: 1, QueueCapacity: 4})
	release, _ := blockingExecute(s.Manager())
	ctx := context.Background()

	running, err := c.Submit(ctx, tinySim(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, running.ID, server.StateRunning)

	drainDone := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- s.Manager().Drain(dctx)
	}()
	// Wait until the manager flips to draining.
	for !s.Manager().Draining() {
		time.Sleep(time.Millisecond)
	}

	// New work is rejected with 503 + Retry-After while draining.
	_, err = c.Submit(ctx, tinySim(2))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %v, want 503", err)
	}
	if apiErr.RetryAfter == "" {
		t.Error("503 without Retry-After")
	}
	if c.Healthy(ctx) {
		t.Error("healthz must fail while draining")
	}

	// The running job survives the drain and completes.
	close(release)
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	st, err := c.Status(ctx, running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("running job ended %q after drain, want done", st.State)
	}
	if snap(s)["cgct_draining"] != 1 {
		t.Error("metrics must report draining")
	}
}

func TestDrainDeadlineForceCancels(t *testing.T) {
	s, c := newTestServer(t, server.Options{Workers: 1, QueueCapacity: 2})
	release, _ := blockingExecute(s.Manager())
	defer close(release)
	ctx := context.Background()
	st, err := c.Submit(ctx, tinySim(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, server.StateRunning)
	dctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Manager().Drain(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want deadline exceeded", err)
	}
	final, err := c.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.StateCancelled {
		t.Fatalf("job ended %q after forced drain, want cancelled", final.State)
	}
}

func TestMetricsLatencyPercentiles(t *testing.T) {
	s, c := newTestServer(t, server.Options{Workers: 2, QueueCapacity: 8})
	ctx := context.Background()
	for seed := uint64(1); seed <= 4; seed++ {
		st, err := c.Submit(ctx, tinySim(seed))
		if err != nil {
			t.Fatal(err)
		}
		if final, _ := c.Wait(ctx, st.ID, time.Millisecond); final.State != server.StateDone {
			t.Fatalf("seed %d: %+v", seed, final)
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Percentiles come from the latency histogram's buckets, which hold
	// every done job.
	if n, inf := m["cgct_job_latency_seconds_count"], m[`cgct_job_latency_seconds_bucket{le="+Inf"}`]; n != 4 || inf != 4 {
		t.Fatalf("latency samples = %v, +Inf bucket = %v; want 4 each", n, inf)
	}
	if m[`cgct_jobs{state="done"}`] != 4 || m["cgct_jobs_completed_total"] != 4 {
		t.Fatalf("job accounting: done %v, completed %v", m[`cgct_jobs{state="done"}`], m["cgct_jobs_completed_total"])
	}
	if m["cgct_queue_depth"] != 0 || m["cgct_queue_capacity"] != 8 || m["cgct_workers"] != 2 || m["cgct_busy_workers"] != 0 {
		t.Fatalf("pool accounting: depth %v cap %v workers %v busy %v",
			m["cgct_queue_depth"], m["cgct_queue_capacity"], m["cgct_workers"], m["cgct_busy_workers"])
	}
	if local := snap(s); local[`cgct_jobs{state="done"}`] != m[`cgct_jobs{state="done"}`] {
		t.Fatal("manager metrics disagree with HTTP metrics")
	}
}

func TestValidationAndErrorPaths(t *testing.T) {
	s, c := newTestServer(t, server.Options{Workers: 1, QueueCapacity: 4})
	ctx := context.Background()
	badRequests := []server.JobRequest{
		{},                           // missing benchmark
		{Benchmark: "no-such-bench"}, // unknown workload
		{Benchmark: "ocean", Options: cgct.Options{CGCT: true, RegionBytes: 7}},    // invalid config
		{Benchmark: "ocean", Options: cgct.Options{CGCT: true, RegionBytes: 8192}}, // region spans two homes
	}
	for i, req := range badRequests {
		_, err := c.Submit(ctx, req)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
			t.Errorf("bad request %d: err = %v, want 400", i, err)
		}
	}

	// Malformed JSON body.
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", resp.StatusCode)
	}

	// The body is bounded: a request past 64 KiB gets a short 413, bytes
	// after the JSON object get a 400, and so does a benchmark name past
	// 64 bytes, whose error body stays short rather than repeating it.
	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"body over the limit", `{"benchmark":"ocean"` + strings.Repeat(" ", 64<<10) + `}`, http.StatusRequestEntityTooLarge},
		{"trailing garbage", `{"benchmark":"ocean","options":{"OpsPerProc":2000}} trailing garbage`, http.StatusBadRequest},
		{"over-long name", `{"benchmark":"` + strings.Repeat("x", 16<<10) + `"}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code || len(body) >= 1<<10 {
			t.Errorf("%s: %d with a %d-byte body, want %d with under 1 KiB", tc.name, resp.StatusCode, len(body), tc.code)
		}
	}

	// A field the API does not have is refused by name, not ignored: a
	// client still sending a retired fabric, directory or I/O-injection
	// option must not silently get results simulated without it, and one
	// asking for the retired experiment job kind must not silently get a
	// simulation.
	for _, tc := range []struct{ field, body string }{
		{"SimParallelism", `{"benchmark":"ocean","options":{"SimParallelism":4}}`},
		{"Fabric", `{"benchmark":"ocean","options":{"Fabric":"directory"}}`},
		{"DirScheme", `{"benchmark":"ocean","options":{"Directory":true,"DirScheme":"limited"}}`},
		{"DirPointers", `{"benchmark":"ocean","options":{"Directory":true,"DirPointers":2}}`},
		{"DirEntriesPerHome", `{"benchmark":"ocean","options":{"Directory":true,"DirEntriesPerHome":2048}}`},
		{"DMAIntervalCycles", `{"benchmark":"ocean","options":{"DMAIntervalCycles":2000}}`},
		{"type", `{"type":"experiment","experiment":"table1"}`},
		{"experiment", `{"benchmark":"ocean","experiment":"fig8"}`},
		{"params", `{"benchmark":"ocean","params":{"OpsPerProc":2000}}`},
	} {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		// The JSON error body escapes the quotes around the field name.
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `unknown field \"`+tc.field+`\"`) {
			t.Errorf("unknown field %s: %d %s, want 400 naming the field", tc.field, resp.StatusCode, body)
		}
	}

	// Unknown job ID: 404 on status, result and cancel.
	for _, f := range []func() (server.JobStatus, error){
		func() (server.JobStatus, error) { return c.Status(ctx, "deadbeef") },
		func() (server.JobStatus, error) { return c.Result(ctx, "deadbeef", nil) },
		func() (server.JobStatus, error) { return c.Cancel(ctx, "deadbeef") },
	} {
		_, err := f()
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
			t.Errorf("unknown id: err = %v, want 404", err)
		}
	}

	// Result of a non-done job: 409.
	release, _ := blockingExecute(s.Manager())
	defer close(release)
	st, err := c.Submit(ctx, tinySim(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, server.StateRunning)
	_, err = c.Result(ctx, st.ID, nil)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("result of running job: %v, want 409", err)
	}
}

// TestConcurrentIdenticalSubmissions: N identical jobs in flight at once
// cost one simulation (singleflight through the shared cache).
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	s, c := newTestServer(t, server.Options{Workers: 4, QueueCapacity: 16})
	ctx := context.Background()
	ids := make([]string, 6)
	for i := range ids {
		st, err := c.Submit(ctx, server.JobRequest{
			Benchmark: "ocean",
			Options:   cgct.Options{OpsPerProc: 60_000, Seed: 99},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	for _, id := range ids {
		if st, _ := c.Wait(ctx, id, time.Millisecond); st.State != server.StateDone {
			t.Fatalf("job %s: %+v", id, st)
		}
	}
	if got := snap(s)["cgct_result_cache_misses_total"]; got != 1 {
		t.Fatalf("%d identical jobs ran %v simulations, want 1", len(ids), got)
	}
}
