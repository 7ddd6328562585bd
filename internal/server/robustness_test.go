package server_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"cgct"
	"cgct/internal/faultinject"
	"cgct/internal/server"
)

func TestDeadlineFailsJob(t *testing.T) {
	srv, c := newTestServer(t, server.Options{Workers: 1, QueueCapacity: 4, DefaultTimeout: time.Hour})
	// Executor that only returns when its context dies: the per-request
	// deadline must be what kills it, not the hour-long server default.
	srv.Manager().SetExecutorForTest(func(ctx context.Context, req server.JobRequest) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	req := tinySim(1)
	req.TimeoutMs = 50
	st, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := c.Wait(context.Background(), st.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != server.StateFailed || final.FailureKind != "deadline" {
		t.Fatalf("final = %+v, want failed/deadline", final)
	}
	if !strings.Contains(final.Error, "deadline exceeded") {
		t.Errorf("error %q does not mention the deadline", final.Error)
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := m["cgct_deadlines_exceeded_total"]; got != 1 {
		t.Errorf("deadlines exceeded = %v, want 1", got)
	}
}

func TestCancelBeatsDeadline(t *testing.T) {
	srv, c := newTestServer(t, server.Options{Workers: 1, QueueCapacity: 4})
	started := make(chan struct{}, 1)
	srv.Manager().SetExecutorForTest(func(ctx context.Context, req server.JobRequest) (any, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	req := tinySim(1)
	req.TimeoutMs = 60_000
	st, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started
	if _, err := c.Cancel(context.Background(), st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	final, err := c.Wait(context.Background(), st.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != server.StateCancelled || final.FailureKind != "" {
		t.Fatalf("final = %+v, want cancelled with no failure kind", final)
	}
}

// TestWatchdogKillsStalledSim wedges a real simulation with an injected
// event-loop delay far longer than the watchdog's stall budget, and
// expects the watchdog — not the deadline, which is disabled — to fail
// the job.
func TestWatchdogKillsStalledSim(t *testing.T) {
	if testing.Short() {
		t.Skip("watchdog stall test sleeps for real; skipped in -short")
	}
	plan := faultinject.NewPlan(1)
	plan.Arm(faultinject.PointSimEventLoop, faultinject.Spec{
		Mode: faultinject.ModeDelay, Delay: 2 * time.Second, Probability: 1, Limit: 1,
	})
	faultinject.Enable(plan)
	defer faultinject.Disable()

	_, c := newTestServer(t, server.Options{Workers: 1, QueueCapacity: 4, WatchdogStall: 200 * time.Millisecond})
	// Big enough to span multiple event batches: the run must still be in
	// progress when the injected stall ends, so it observes the kill.
	req := server.JobRequest{Benchmark: "ocean",
		Options: cgct.Options{OpsPerProc: 60_000, Seed: 7}}
	st, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := c.Wait(context.Background(), st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != server.StateFailed || final.FailureKind != "watchdog" {
		t.Fatalf("final = %+v, want failed/watchdog", final)
	}
	if !strings.Contains(final.Error, "watchdog") {
		t.Errorf("error %q does not mention the watchdog", final.Error)
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := m["cgct_watchdog_kills_total"]; got != 1 {
		t.Errorf("watchdog kills = %v, want 1", got)
	}
}

// TestWatchdogSparesProgressingSim: a healthy long-running sim must NOT
// be killed just for taking longer than the stall budget, because its
// event counter keeps moving.
func TestWatchdogSparesProgressingSim(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-batch sim; skipped in -short")
	}
	_, c := newTestServer(t, server.Options{Workers: 1, QueueCapacity: 4, WatchdogStall: 100 * time.Millisecond})
	req := server.JobRequest{Benchmark: "ocean",
		Options: cgct.Options{OpsPerProc: 120_000, Seed: 7}}
	st, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := c.Wait(context.Background(), st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != server.StateDone {
		t.Fatalf("final = %+v, want done (watchdog must not kill a progressing run)", final)
	}
}

func TestPanicIsolatedToJob(t *testing.T) {
	plan := faultinject.NewPlan(9)
	plan.Arm(faultinject.PointWorker, faultinject.Spec{
		Mode: faultinject.ModePanic, Probability: 1, Limit: 1,
	})
	faultinject.Enable(plan)
	defer faultinject.Disable()

	_, c := newTestServer(t, server.Options{Workers: 1, QueueCapacity: 4})
	ctx := context.Background()
	st, err := c.Submit(ctx, tinySim(1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := c.Wait(ctx, st.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != server.StateFailed || final.FailureKind != "panic" {
		t.Fatalf("final = %+v, want failed/panic", final)
	}
	if !strings.Contains(final.Error, "injected panic") {
		t.Errorf("error %q does not carry the panic value", final.Error)
	}

	// The single worker survived its panic (limit exhausted, so no more
	// fire): the same request — same cache key — must now succeed, proving
	// the failed computation did not poison the cache either.
	st2, err := c.Submit(ctx, tinySim(1))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	final2, err := c.Wait(ctx, st2.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("wait 2: %v", err)
	}
	if final2.State != server.StateDone {
		t.Fatalf("resubmit final = %+v, want done from a fresh leader", final2)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := m["cgct_panics_recovered_total"]; got != 1 {
		t.Errorf("panics recovered = %v, want 1", got)
	}
}

// TestCachePanicNotPoisoning: a panic inside the singleflight compute
// leader (conversion happens in runcache.Do, not at the worker boundary)
// must fail the leading job with kind "panic" and leave the key retryable.
func TestCachePanicNotPoisoning(t *testing.T) {
	plan := faultinject.NewPlan(9)
	plan.Arm(faultinject.PointCacheCompute, faultinject.Spec{
		Mode: faultinject.ModePanic, Probability: 1, Limit: 1,
	})
	faultinject.Enable(plan)
	defer faultinject.Disable()

	_, c := newTestServer(t, server.Options{Workers: 1, QueueCapacity: 4})
	ctx := context.Background()
	st, err := c.Submit(ctx, tinySim(1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := c.Wait(ctx, st.ID, time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != server.StateFailed || final.FailureKind != "panic" {
		t.Fatalf("final = %+v, want failed/panic", final)
	}
	st2, err := c.Submit(ctx, tinySim(1))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if final2, err := c.Wait(ctx, st2.ID, time.Millisecond); err != nil || final2.State != server.StateDone {
		t.Fatalf("resubmit final = %+v, err %v, want done", final2, err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := m["cgct_panics_recovered_total"]; got != 1 {
		t.Errorf("panics recovered = %v, want 1 (leader-counted exactly once)", got)
	}
}

// TestCancelFinishRace hammers Cancel against concurrent job completion:
// whichever lands first wins, the terminal state never flips afterwards,
// and cancelling an already-terminal job is a no-op.
func TestCancelFinishRace(t *testing.T) {
	srv, c := newTestServer(t, server.Options{Workers: 4, QueueCapacity: 64})
	release := make(chan struct{})
	srv.Manager().SetExecutorForTest(func(ctx context.Context, req server.JobRequest) (any, error) {
		select {
		case <-release:
			return "ok", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	ctx := context.Background()
	const rounds = 50
	ids := make([]string, rounds)
	for i := range ids {
		req := tinySim(uint64(i)) // distinct keys
		st, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	// Release completions and fire cancels at the same instant.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); close(release) }()
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if _, err := c.Cancel(ctx, id); err != nil {
				t.Errorf("cancel %s: %v", id, err)
			}
		}(id)
	}
	wg.Wait()
	for _, id := range ids {
		final, err := c.Wait(ctx, id, time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if final.State != server.StateDone && final.State != server.StateCancelled {
			t.Fatalf("job %s ended %q, want done or cancelled", id, final.State)
		}
		// Terminal state is frozen: a later cancel must not change it.
		again, err := c.Cancel(ctx, id)
		if err != nil {
			t.Fatalf("re-cancel %s: %v", id, err)
		}
		if again.State != final.State {
			t.Fatalf("job %s flipped %q -> %q after a post-terminal cancel", id, final.State, again.State)
		}
		if final.FinishedAt == nil || again.FinishedAt == nil || !again.FinishedAt.Equal(*final.FinishedAt) {
			t.Fatalf("job %s finish time moved after a post-terminal cancel", id)
		}
	}
}
