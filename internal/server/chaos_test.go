package server_test

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"cgct"
	"cgct/internal/faultinject"
	"cgct/internal/server"
	"cgct/internal/server/client"
)

// TestChaosServerSurvivesInjectedFaults is the fault-injection harness:
// with panics armed at the worker boundary and inside the singleflight
// compute leader, and injected errors in the simulator's event loop, the
// server must keep every worker alive, drive every submission to a
// terminal state, keep its metrics consistent — and, once the faults are
// disabled, still produce bit-identical results for the pinned golden
// configurations.
func TestChaosServerSurvivesInjectedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run is seconds-long; skipped in -short")
	}
	plan := faultinject.NewPlan(42)
	plan.Arm(faultinject.PointWorker, faultinject.Spec{Mode: faultinject.ModePanic, Probability: 0.35})
	plan.Arm(faultinject.PointCacheCompute, faultinject.Spec{Mode: faultinject.ModePanic, Probability: 0.15})
	plan.Arm(faultinject.PointSimEventLoop, faultinject.Spec{Mode: faultinject.ModeError, Probability: 0.10})
	faultinject.Enable(plan)
	defer faultinject.Disable()

	srv, base := newTestServer(t, server.Options{Workers: 4, QueueCapacity: 64})
	c := base.WithRetry(client.RetryPolicy{
		MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond,
	})
	ctx := context.Background()

	const (
		wantPanics     = 100
		maxSubmissions = 3000
		batch          = 32
	)
	var ids []string
	seed := uint64(0)
	for len(ids) < maxSubmissions {
		var round []string
		for i := 0; i < batch; i++ {
			seed++
			req := tinySim(seed)
			// Every third job runs the directory fabric so fault containment
			// covers both coherence backends (including the fabric's
			// close-on-every-exit-path guarantee under injected faults).
			if seed%3 == 0 {
				req.Options.Directory = true
			}
			st, err := c.Submit(ctx, req)
			if err != nil {
				t.Fatalf("submit %d (with retries): %v", seed, err)
			}
			round = append(round, st.ID)
		}
		ids = append(ids, round...)
		// Every job must reach a terminal state: a stuck job is exactly the
		// containment failure this harness exists to catch.
		for _, id := range round {
			st, err := c.Wait(ctx, id, time.Millisecond)
			if err != nil {
				t.Fatalf("wait %s: %v", id, err)
			}
			if !st.State.Terminal() {
				t.Fatalf("job %s non-terminal after wait: %+v", id, st)
			}
			if st.State == server.StateFailed && st.FailureKind == "" {
				t.Errorf("failed job %s has no failure_kind (error %q)", id, st.Error)
			}
		}
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatalf("metrics: %v", err)
		}
		if m["cgct_panics_recovered_total"] >= wantPanics {
			break
		}
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	panics := m["cgct_panics_recovered_total"]
	if panics < wantPanics {
		t.Fatalf("recovered %v panics across %d submissions, want >= %d",
			panics, len(ids), wantPanics)
	}
	if got := m["cgct_jobs_completed_total"]; got != float64(len(ids)) {
		t.Errorf("jobs completed = %v, want %d (every accepted job terminal)", got, len(ids))
	}
	if m["cgct_queue_depth"] != 0 || m["cgct_busy_workers"] != 0 {
		t.Errorf("queue depth %v / busy %v after all jobs terminal, want 0/0", m["cgct_queue_depth"], m["cgct_busy_workers"])
	}
	if got := m[`cgct_jobs{state="queued"}`] + m[`cgct_jobs{state="running"}`]; got != 0 {
		t.Errorf("%v jobs stuck non-terminal", got)
	}
	t.Logf("chaos: %d submissions, %v panics recovered (worker fired %d, cache fired %d, simloop fired %d)",
		len(ids), panics,
		plan.Fired(faultinject.PointWorker), plan.Fired(faultinject.PointCacheCompute),
		plan.Fired(faultinject.PointSimEventLoop))

	// Phase 2: faults off, the engine must still be bit-exact. Run the two
	// pinned ocean golden configurations through the full serving path and
	// compare against the repo's golden fixtures.
	faultinject.Disable()
	checkGoldenThroughServer(t, c)
	_ = srv
}

// goldenFixture is the flat counter map of testdata/golden_runs.json.
type goldenFixture map[string]map[string]uint64

// sumPrefix totals the per-kind array counters ("Requests.00"...).
func sumPrefix(fix map[string]uint64, prefix string) uint64 {
	var s uint64
	for k, v := range fix {
		if len(k) > len(prefix) && k[:len(prefix)+1] == prefix+"." {
			s += v
		}
	}
	return s
}

func checkGoldenThroughServer(t *testing.T, c *client.Client) {
	t.Helper()
	raw, err := os.ReadFile("../../testdata/golden_runs.json")
	if err != nil {
		t.Fatalf("reading golden fixtures: %v", err)
	}
	var fixtures goldenFixture
	if err := json.Unmarshal(raw, &fixtures); err != nil {
		t.Fatalf("decoding golden fixtures: %v", err)
	}
	cases := []struct {
		name string
		req  server.JobRequest
	}{
		{"ocean-baseline", server.JobRequest{
			Benchmark: "ocean",
			Options:   cgct.Options{OpsPerProc: 60_000, Seed: 7},
		}},
		{"ocean-cgct", server.JobRequest{
			Benchmark: "ocean",
			Options:   cgct.Options{OpsPerProc: 60_000, Seed: 7, CGCT: true},
		}},
		{"ocean-dir-cgct", server.JobRequest{
			Benchmark: "ocean",
			Options:   cgct.Options{OpsPerProc: 60_000, Seed: 7, CGCT: true, Directory: true},
		}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		fix, ok := fixtures[tc.name]
		if !ok {
			t.Fatalf("no golden fixture %q", tc.name)
		}
		st, err := c.Submit(ctx, tc.req)
		if err != nil {
			t.Fatalf("%s: submit: %v", tc.name, err)
		}
		if final, err := c.Wait(ctx, st.ID, 5*time.Millisecond); err != nil || final.State != server.StateDone {
			t.Fatalf("%s: final = %+v, err %v", tc.name, final, err)
		}
		var res cgct.Result
		if _, err := c.Result(ctx, st.ID, &res); err != nil {
			t.Fatalf("%s: result: %v", tc.name, err)
		}
		checks := []struct {
			field string
			got   uint64
			want  uint64
		}{
			{"Cycles", res.Cycles, fix["Cycles"]},
			{"Instructions", res.Instructions, fix["Instructions"]},
			{"DemandMisses", res.DemandMisses, fix["DemandMisses"]},
			{"Requests", res.Requests, sumPrefix(fix, "Requests")},
			{"Broadcasts", res.Broadcasts, sumPrefix(fix, "Broadcasts")},
			{"DirMessages", res.DirMessages, fix["DirMessages"]},
			{"DirFastPaths", res.DirFastPaths, fix["DirFastPaths"]},
		}
		for _, ck := range checks {
			if ck.got != ck.want {
				t.Errorf("%s: %s = %d, golden fixture has %d (post-chaos results must be bit-identical)",
					tc.name, ck.field, ck.got, ck.want)
			}
		}
	}
}
