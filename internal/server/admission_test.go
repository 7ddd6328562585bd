package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cgct"
	"cgct/internal/faultinject"
	"cgct/internal/server"
	"cgct/internal/server/client"
	"cgct/internal/store"
)

// postJob submits req over raw HTTP, returning the status code, the
// Location header and the decoded job status (zero on a non-2xx).
func postJob(t *testing.T, url string, req server.JobRequest) (int, string, server.JobStatus) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st server.JobStatus
	if resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return resp.StatusCode, resp.Header.Get("Location"), st
}

// phaseNames lists a status's phase names, comma-joined.
func phaseNames(st server.JobStatus) string {
	var names []string
	for _, p := range st.Phases {
		names = append(names, p.Name)
	}
	return strings.Join(names, ",")
}

// runToDone submits req and waits for it to finish done.
func runToDone(t *testing.T, c *client.Client, req server.JobRequest) server.JobStatus {
	t.Helper()
	ctx := context.Background()
	sub, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err := c.Wait(ctx, sub.ID, time.Millisecond)
	if err != nil || st.State != server.StateDone {
		t.Fatalf("job: %+v, %v", st, err)
	}
	return st
}

// TestAdmissionServesResidentKey: resubmitting a resident key returns a
// job that is already done in the submit response — 200, cache_hit, the
// follower phase shape — whose result is fetchable without a single
// status poll.
func TestAdmissionServesResidentKey(t *testing.T) {
	s := server.New(server.Options{Workers: 2, QueueCapacity: 8})
	var statusCalls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") &&
			!strings.HasSuffix(r.URL.Path, "/result") {
			statusCalls.Add(1)
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	t.Cleanup(func() { _ = s.Manager().Drain(context.Background()) })
	c := client.New(hs.URL, hs.Client())
	ctx := context.Background()

	first := runToDone(t, c, tinySim(41))
	var want cgct.Result
	if _, err := c.Result(ctx, first.ID, &want); err != nil {
		t.Fatal(err)
	}
	missesBefore := snap(s)["cgct_result_cache_misses_total"]

	statusCalls.Store(0)
	code, loc, st := postJob(t, hs.URL, tinySim(41))
	if code != http.StatusOK {
		t.Fatalf("resident resubmission: HTTP %d, want 200", code)
	}
	if loc != "/v1/jobs/"+st.ID {
		t.Errorf("Location = %q, want /v1/jobs/%s", loc, st.ID)
	}
	if st.State != server.StateDone || !st.CacheHit || st.ResultSource != "" {
		t.Fatalf("submit response = %+v, want done with cache_hit and no result_source", st)
	}
	if got := phaseNames(st); got != "queued,execute" {
		t.Errorf("phases = %s, want queued,execute", got)
	}
	if st.StartedAt == nil || !st.StartedAt.Equal(st.SubmittedAt) || st.FinishedAt == nil {
		t.Errorf("timestamps: submitted %v started %v finished %v", st.SubmittedAt, st.StartedAt, st.FinishedAt)
	}
	var got cgct.Result
	if _, err := c.Result(ctx, st.ID, &got); err != nil {
		t.Fatalf("result: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("admission-served result differs from the simulated one")
	}
	if n := statusCalls.Load(); n != 0 {
		t.Errorf("%d status calls, want 0", n)
	}
	if m := snap(s); m["cgct_result_cache_misses_total"] != missesBefore || m[`cgct_jobs{state="done"}`] != 2 {
		t.Fatalf("metrics after admission hit: misses %v -> %v, done %v",
			missesBefore, m["cgct_result_cache_misses_total"], m[`cgct_jobs{state="done"}`])
	}

	// The Go client sees the same: done straight from Submit.
	st2, err := c.Submit(ctx, tinySim(41))
	if err != nil || st2.State != server.StateDone || !st2.CacheHit {
		t.Fatalf("client resubmission: %+v, %v", st2, err)
	}
}

// TestMetricsLatencySubMillisecond: the latency histogram resolves below
// a millisecond, so jobs served at admission land in its sub-millisecond
// buckets instead of all reading as "under 1 ms".
func TestMetricsLatencySubMillisecond(t *testing.T) {
	s, c := newTestServer(t, server.Options{Workers: 1, QueueCapacity: 4})
	runToDone(t, c, tinySim(42))
	for i := 0; i < 3; i++ {
		if st, err := s.Manager().Submit(tinySim(42)); err != nil || st.State != server.StateDone {
			t.Fatalf("resident resubmission %d: %+v, %v", i, st, err)
		}
	}
	m := snap(s)
	if n := m["cgct_job_latency_seconds_count"]; n != 4 {
		t.Fatalf("latency samples = %v, want 4", n)
	}
	if sum := m["cgct_job_latency_seconds_sum"]; sum <= 0 {
		t.Fatalf("latency sum = %v s, want > 0", sum)
	}
	if n := m[`cgct_job_latency_seconds_bucket{le="0.001"}`]; n < 3 {
		t.Fatalf("%v jobs at or below 1 ms, want the 3 served at admission", n)
	}
}

// TestAdmissionInFlightKeyQueues: a key whose computation is in flight is
// not served at admission; the job is queued and finishes as a follower of
// the running leader, costing no second computation.
func TestAdmissionInFlightKeyQueues(t *testing.T) {
	plan := faultinject.NewPlan(1)
	plan.Arm(faultinject.PointCacheCompute, faultinject.Spec{
		Mode: faultinject.ModeDelay, Delay: 300 * time.Millisecond, Probability: 1, Limit: 1,
	})
	faultinject.Enable(plan)
	defer faultinject.Disable()

	s, c := newTestServer(t, server.Options{Workers: 2, QueueCapacity: 8})
	ctx := context.Background()
	leader, err := c.Submit(ctx, tinySim(43))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the leader's computation to be in flight", func() bool {
		return snap(s)["cgct_result_cache_in_flight"] == 1
	})
	follower, err := c.Submit(ctx, tinySim(43))
	if err != nil {
		t.Fatal(err)
	}
	if follower.State != server.StateQueued || !follower.CacheHit {
		t.Fatalf("in-flight resubmission = %+v, want queued with cache_hit", follower)
	}
	final, err := c.Wait(ctx, follower.ID, time.Millisecond)
	if err != nil || final.State != server.StateDone {
		t.Fatalf("follower: %+v, %v", final, err)
	}
	if final.ResultSource != "" || phaseNames(final) != "queued,execute" {
		t.Errorf("follower = source %q phases %s, want no source and queued,execute", final.ResultSource, phaseNames(final))
	}
	if st, err := c.Wait(ctx, leader.ID, time.Millisecond); err != nil || st.ResultSource != "sim" {
		t.Fatalf("leader: %+v, %v", st, err)
	}
	if m := snap(s); m["cgct_result_cache_misses_total"] != 1 || m["cgct_result_cache_hits_total"] != 1 {
		t.Fatalf("cache misses %v / hits %v, want 1 miss (the leader) / 1 hit (the follower's join)",
			m["cgct_result_cache_misses_total"], m["cgct_result_cache_hits_total"])
	}
}

// TestAdmissionServesUnderFullQueue: admission serving never touches the
// queue, so with it full a resident key is still answered (200) while a
// key that needs a worker gets 429 — a stored key included, since only
// the worker pool reads the store.
func TestAdmissionServesUnderFullQueue(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Options{Workers: 1, QueueCapacity: 1, Store: st})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() { _ = s.Manager().Drain(context.Background()) })
	c := client.New(hs.URL, hs.Client())
	ctx := context.Background()

	// Make key R resident through the real executor, then block the worker
	// on key K and fill the one-slot queue.
	runToDone(t, c, tinySim(44))
	release, _ := blockingExecute(s.Manager())
	t.Cleanup(func() { close(release) })
	running, err := c.Submit(ctx, tinySim(45))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, running.ID, server.StateRunning)
	if _, err := c.Submit(ctx, tinySim(46)); err != nil {
		t.Fatalf("filling the queue: %v", err)
	}

	code, _, resident := postJob(t, hs.URL, tinySim(44))
	if code != http.StatusOK || resident.State != server.StateDone || !resident.CacheHit {
		t.Fatalf("resident key with a full queue: HTTP %d %+v, want 200 done with cache_hit", code, resident)
	}
	if code, _, _ := postJob(t, hs.URL, tinySim(47)); code != http.StatusTooManyRequests {
		t.Fatalf("fresh key with a full queue: HTTP %d, want 429", code)
	}
	// The test executor bypasses the result cache, so K is not resident;
	// give the store an answer for it. Serving it still takes a worker.
	if err := st.Put(running.Key, []byte(`{"stored":true}`)); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := postJob(t, hs.URL, tinySim(45)); code != http.StatusTooManyRequests {
		t.Fatalf("stored key with a full queue: HTTP %d, want 429", code)
	}
}

// TestAdmissionDrainingRejectsResident: draining wins over admission
// serving — even a resident key gets 503, and the cache is not consulted.
func TestAdmissionDrainingRejectsResident(t *testing.T) {
	s := server.New(server.Options{Workers: 1, QueueCapacity: 4})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	c := client.New(hs.URL, hs.Client())
	runToDone(t, c, tinySim(47))
	before := snap(s)
	if err := s.Manager().Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Manager().Submit(tinySim(47)); !errors.Is(err, server.ErrDraining) {
		t.Fatalf("Submit while draining: %v, want ErrDraining", err)
	}
	if code, _, _ := postJob(t, hs.URL, tinySim(47)); code != http.StatusServiceUnavailable {
		t.Fatalf("resident key while draining: HTTP %d, want 503", code)
	}
	for _, series := range []string{"cgct_result_cache_hits_total", "cgct_result_cache_misses_total"} {
		if after := snap(s)[series]; after != before[series] {
			t.Fatalf("draining submit touched the cache: %s %v -> %v", series, before[series], after)
		}
	}
}

// TestAdmissionConcurrentSubmits races many submissions of a few keys —
// fresh, in flight, stored and resident all at once — through admission
// and the queue. Every job must end done with one payload per key, each
// key simulated exactly once.
func TestAdmissionConcurrentSubmits(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, server.Options{Workers: 2, QueueCapacity: 256, CacheEntries: 2, Store: st})
	m := s.Manager()
	const goroutines, perG, keys = 8, 12, 3
	ids := make(chan string, goroutines*perG)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sub, err := m.Submit(tinySim(uint64(60 + (g+i)%keys)))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				ids <- sub.ID
			}
		}(g)
	}
	wg.Wait()
	close(ids)

	payloads := map[string]string{}
	sims := map[string]int{}
	for id := range ids {
		waitFor(t, 10*time.Second, "job "+id+" to finish", func() bool {
			js, err := m.Status(id)
			return err == nil && js.State.Terminal()
		})
		res, js, err := m.Result(id)
		if err != nil || js.State != server.StateDone {
			t.Fatalf("job %s: %+v, %v", id, js, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := payloads[js.Key]; ok && prev != string(b) {
			t.Fatalf("key %.12s served two different payloads", js.Key)
		}
		payloads[js.Key] = string(b)
		if js.ResultSource == "sim" {
			sims[js.Key]++
		}
	}
	if len(payloads) != keys {
		t.Fatalf("%d distinct keys served, want %d", len(payloads), keys)
	}
	for key := range payloads {
		if sims[key] != 1 {
			t.Errorf("key %.12s simulated %d times, want 1", key, sims[key])
		}
	}
}

// TestAdmissionStoreReadsPerJob pins the store accounting: a fresh key
// costs exactly one store miss (its compute leader's read), a stored key
// exactly one hit, and a resident key no read at all — admission serves
// it from memory.
func TestAdmissionStoreReadsPerJob(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s, c := newTestServer(t, server.Options{Workers: 1, QueueCapacity: 4, CacheEntries: 1, Store: st})
	delta := func(what string, wantHits, wantMisses uint64, run func()) {
		t.Helper()
		before := st.Stats()
		run()
		after := st.Stats()
		if h, m := after.Hits-before.Hits, after.Misses-before.Misses; h != wantHits || m != wantMisses {
			t.Errorf("%s: store hits +%d misses +%d, want +%d / +%d", what, h, m, wantHits, wantMisses)
		}
	}
	delta("fresh key", 0, 1, func() {
		if js := runToDone(t, c, tinySim(50)); js.ResultSource != "sim" {
			t.Fatalf("fresh key served from %q", js.ResultSource)
		}
	})
	delta("second fresh key", 0, 1, func() { runToDone(t, c, tinySim(51)) }) // evicts 50
	cacheBefore := snap(s)
	delta("stored key", 1, 0, func() {
		sub, err := s.Manager().Submit(tinySim(50))
		if err != nil || sub.State != server.StateQueued {
			t.Fatalf("stored key: %+v, %v; want queued for a worker", sub, err)
		}
		js, err := c.Wait(context.Background(), sub.ID, time.Millisecond)
		if err != nil || js.State != server.StateDone || js.ResultSource != "store" || js.CacheHit {
			t.Fatalf("stored key: %+v, %v; want done from the store", js, err)
		}
	})
	delta("resident key", 0, 0, func() {
		sub, err := s.Manager().Submit(tinySim(50))
		if err != nil || sub.State != server.StateDone || !sub.CacheHit {
			t.Fatalf("resident key: %+v, %v; want a done cache hit", sub, err)
		}
	})
	// The result cache counts the store-served job's leader as a miss, and
	// the resident one as a hit.
	for _, series := range []string{"cgct_result_cache_hits_total", "cgct_result_cache_misses_total"} {
		if after := snap(s)[series]; after != cacheBefore[series]+1 {
			t.Errorf("%s %v -> %v, want +1", series, cacheBefore[series], after)
		}
	}
}
