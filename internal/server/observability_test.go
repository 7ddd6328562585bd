package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"cgct"
	"cgct/internal/cluster"
	"cgct/internal/metrics"
	"cgct/internal/server"
)

// scrape fetches /metrics through the public HTTP surface and parses the
// Prometheus text exposition into series → value.
func scrape(t *testing.T, c interface {
	PrometheusMetrics(ctx context.Context) (string, error)
}) map[string]float64 {
	t.Helper()
	text, err := c.PrometheusMetrics(context.Background())
	if err != nil {
		t.Fatalf("prometheus metrics: %v", err)
	}
	m, err := metrics.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	return m
}

// TestMetricsOutcomeCounters drives successes, a panic and a failure
// through the server and checks the outcome counters on /v1/metrics, and
// that /metrics parses to exactly the same series with the same values.
func TestMetricsOutcomeCounters(t *testing.T) {
	s, c := newTestServer(t, server.Options{Workers: 2, QueueCapacity: 8})
	mode := "ok"
	s.Manager().SetExecutorForTest(func(ctx context.Context, _ server.JobRequest) (any, error) {
		switch mode {
		case "panic":
			panic("injected for metrics test")
		case "fail":
			return nil, errors.New("injected failure")
		default:
			return "result", nil
		}
	})

	ctx := context.Background()
	for i, m := range []string{"ok", "ok", "panic", "fail"} {
		mode = m
		st, err := c.Submit(ctx, tinySim(uint64(i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if _, err = c.Wait(ctx, st.ID, time.Millisecond); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cgct_jobs_submitted_total":      4,
		"cgct_jobs_completed_total":      4,
		"cgct_panics_recovered_total":    1,
		`cgct_jobs{state="done"}`:        2,
		`cgct_jobs{state="failed"}`:      2,
		"cgct_job_latency_seconds_count": 2, // only done jobs observe latency
	}
	for series, v := range want {
		if got, ok := m[series]; !ok || got != v {
			t.Errorf("%s = %v (present %t), want %v", series, got, ok, v)
		}
	}
	if prom := scrape(t, c); !reflect.DeepEqual(prom, m) {
		t.Errorf("/metrics and /v1/metrics disagree:\n/metrics:    %v\n/v1/metrics: %v", prom, m)
	}
}

// TestStoreAndClusterCounters checks the replication and scrubbing
// counters after real replica traffic: one accepted push, one forged push
// and one scrub pass.
func TestStoreAndClusterCounters(t *testing.T) {
	nodes := startFleet(t, 2, func(c *cluster.Config) { c.Replication = 2 })
	ctx := context.Background()

	sub, err := nodes[0].c.Submit(ctx, server.JobRequest{
		Benchmark: "ocean",
		Options:   cgct.Options{OpsPerProc: 2_000, Seed: 9_600},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := nodes[0].c.Wait(ctx, sub.ID, 2*time.Millisecond)
	if err != nil || st.State != server.StateDone {
		t.Fatalf("job: %+v, %v", st, err)
	}
	waitFor(t, 10*time.Second, "replica to land on the peer", func() bool {
		return nodes[1].st.Has(st.Key)
	})

	// A push with a lying digest must be refused and counted.
	req, err := http.NewRequest(http.MethodPut,
		nodes[0].url+"/v1/results/"+st.Key, strings.NewReader(`{"forged":true}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.DigestHeader, strings.Repeat("0", 64))
	resp, err := nodes[0].hs.Client().Do(req)
	if err != nil {
		t.Fatalf("forged replica PUT: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("forged replica PUT: HTTP %d, want 400", resp.StatusCode)
	}

	nodes[0].st.Flush()
	if n, _, _ := nodes[0].st.ScrubNow(10); n == 0 {
		t.Fatal("scrub pass examined nothing")
	}

	m0, err := nodes[0].c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := nodes[1].c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m0["cgct_replication_pushes_total"] == 0 || m1["cgct_replication_received_total"] == 0 {
		t.Errorf("no replica traffic recorded: pushes=%v received=%v",
			m0["cgct_replication_pushes_total"], m1["cgct_replication_received_total"])
	}
	if got := m0["cgct_replication_rejected_total"]; got != 1 {
		t.Errorf("forged PUT not counted: rejected=%v", got)
	}
	if m0["cgct_store_scrubbed_total"] == 0 {
		t.Error("scrub pass not counted")
	}
}

// TestPhaseSpans drives a real simulation and checks the acceptance
// criterion: the terminal status carries the full phase breakdown —
// queued → admitted → trace-compile → simulate → aggregate → finalize —
// contiguous, and summing to the job's total latency.
func TestPhaseSpans(t *testing.T) {
	_, c := newTestServer(t, server.Options{Workers: 1, QueueCapacity: 8})
	ctx := context.Background()
	st, err := c.Submit(ctx, tinySim(7))
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("job ended %q: %s", st.State, st.Error)
	}
	var names []string
	var sumMs float64
	for i, p := range st.Phases {
		names = append(names, p.Name)
		sumMs += p.DurationMs
		if p.DurationMs < 0 {
			t.Errorf("phase %q has negative duration %v", p.Name, p.DurationMs)
		}
		if i > 0 {
			prev := st.Phases[i-1]
			gap := p.StartedAt.Sub(prev.StartedAt.Add(time.Duration(prev.DurationMs * float64(time.Millisecond))))
			if gap < -time.Millisecond || gap > time.Millisecond {
				t.Errorf("phase %q not contiguous with %q: gap %v", p.Name, prev.Name, gap)
			}
		}
	}
	want := []string{"queued", "admitted", cgct.PhaseTraceCompile, cgct.PhaseSimulate, cgct.PhaseAggregate, "finalize"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("phases = %v, want %v", names, want)
	}
	// Durations tile submit→finish: the sum must match total latency to
	// within rounding (ElapsedMs is truncated to whole milliseconds).
	if math.Abs(sumMs-float64(st.ElapsedMs)) > 2 {
		t.Fatalf("phase durations sum to %.3f ms, job latency is %d ms", sumMs, st.ElapsedMs)
	}
}

// TestPhaseSpansFollowerAndQueuedCancel covers the fallback shapes: a
// cache follower has no run phases (opaque "execute" span), and a job
// cancelled while queued has only its "queued" span.
func TestPhaseSpansFollowerAndQueuedCancel(t *testing.T) {
	_, c := newTestServer(t, server.Options{Workers: 1, QueueCapacity: 8})
	ctx := context.Background()

	st1, err := c.Submit(ctx, tinySim(11))
	if err != nil {
		t.Fatal(err)
	}
	if _, err = c.Wait(ctx, st1.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Identical config: served from the result cache without a fresh run.
	st2, err := c.Submit(ctx, tinySim(11))
	if err != nil {
		t.Fatal(err)
	}
	if st2, err = c.Wait(ctx, st2.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Fatalf("resubmission not a cache hit")
	}
	var names []string
	for _, p := range st2.Phases {
		names = append(names, p.Name)
	}
	if strings.Join(names, ",") != "queued,execute" {
		t.Fatalf("cache-hit phases = %v, want [queued execute]", names)
	}

	// A non-terminal job reports no phases yet; cancelled-while-queued
	// reports only the queued span. Saturate the single worker first.
	block := make(chan struct{})
	s2 := server.New(server.Options{Workers: 1, QueueCapacity: 8})
	t.Cleanup(func() {
		close(block)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s2.Manager().Drain(ctx)
	})
	s2.Manager().SetExecutorForTest(func(ctx context.Context, _ server.JobRequest) (any, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return "done", nil
	})
	if _, err := s2.Manager().Submit(tinySim(1)); err != nil {
		t.Fatal(err)
	}
	stQueued, err := s2.Manager().Submit(tinySim(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(stQueued.Phases) != 0 {
		t.Fatalf("queued job already has phases: %v", stQueued.Phases)
	}
	if _, err := s2.Manager().Cancel(stQueued.ID); err != nil {
		t.Fatal(err)
	}
	st, err := s2.Manager().Status(stQueued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateCancelled || len(st.Phases) != 1 || st.Phases[0].Name != "queued" {
		t.Fatalf("cancelled-while-queued: state=%q phases=%v", st.State, st.Phases)
	}
}

// TestChromeTraceExport checks the -trace-out payload: valid JSON in the
// Chrome Trace Event format whose complete events mirror the jobs' phase
// spans.
func TestChromeTraceExport(t *testing.T) {
	s, c := newTestServer(t, server.Options{Workers: 1, QueueCapacity: 8})
	ctx := context.Background()
	st, err := c.Submit(ctx, tinySim(23))
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, time.Millisecond); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.Manager().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   int64             `json:"ts"`
			Dur  int64             `json:"dur"`
			TID  uint64            `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace export is not valid JSON: %v\n%s", err, buf.String())
	}
	var phaseNames []string
	var total int64
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		phaseNames = append(phaseNames, ev.Name)
		total += ev.Dur
		if ev.Args["job_id"] != st.ID || ev.Args["state"] != "done" || ev.Args["benchmark"] != "ocean" {
			t.Errorf("event %q args wrong: %v", ev.Name, ev.Args)
		}
	}
	for _, want := range []string{"queued", cgct.PhaseTraceCompile, cgct.PhaseSimulate, cgct.PhaseAggregate} {
		found := false
		for _, n := range phaseNames {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("trace export missing phase %q (have %v)", want, phaseNames)
		}
	}
	if got := float64(total) / 1000; math.Abs(got-float64(st.ElapsedMs)) > 2 {
		t.Errorf("trace durations sum to %.3f ms, job latency is %d ms", got, st.ElapsedMs)
	}
}

// TestStructuredLogs asserts the slog stream carries the request-scoped
// attrs the observability layer promises: job id, config hash, and
// failure kind on job lifecycle events.
func TestStructuredLogs(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	m := server.NewManager(server.Options{Workers: 1, QueueCapacity: 4, Logger: logger})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = m.Drain(ctx)
	})
	m.SetExecutorForTest(func(ctx context.Context, _ server.JobRequest) (any, error) {
		panic("logged panic")
	})
	st, err := m.Submit(tinySim(31))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := m.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(time.Millisecond)
	}
	logs := buf.String()
	for _, want := range []string{
		"msg=\"job submitted\"",
		"msg=\"job finished\"",
		"job_id=" + st.ID,
		"config_hash=",
		"state=failed",
		"failure_kind=panic",
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("log stream missing %q:\n%s", want, logs)
		}
	}
}
