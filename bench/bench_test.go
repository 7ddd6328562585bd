package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the benchmark's child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

func tinyOptions(t *testing.T) options {
	return options{tiny: true, seconds: 0, workdir: t.TempDir()}
}

// Every workload at self-test sizes reports every end-to-end metric, fails
// nothing, and gives the same results digest on a second run.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloadOrder {
		t.Run(w, func(t *testing.T) {
			o := tinyOptions(t)
			first := runWorkload(o, w, 7, false)
			if !first.Correct || first.Failed != 0 || first.Attempted == 0 {
				t.Fatalf("correct=%t failed=%d attempted=%d errors=%v", first.Correct, first.Failed, first.Attempted, first.Errors)
			}
			got := map[string]reported{}
			for _, m := range first.Metrics {
				got[m.Name] = m
			}
			for _, d := range endToEnd {
				m, ok := got[d.Name]
				if !ok || m.Absent || !(m.Value > 0) || m.Unit != d.Unit || m.N == 0 {
					t.Errorf("%s: %+v", d.Name, m)
				}
			}
			if len(first.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want %d", len(first.Metrics), len(endToEnd))
			}
			second := runWorkload(o, w, 7, false)
			if first.Digest == "" || second.Digest != first.Digest {
				t.Errorf("results digest %q then %q", first.Digest, second.Digest)
			}
			if other := runWorkload(o, w, 8, false); other.Digest == first.Digest {
				t.Errorf("seeds 7 and 8 give the same digest %q", first.Digest)
			}
		})
	}
}

// A traced run emits every layer metric (present or absent), the tracing
// overhead, and its spans.
func TestTracedTiny(t *testing.T) {
	for _, w := range workloadOrder {
		t.Run(w, func(t *testing.T) {
			rep := runWorkload(tinyOptions(t), w, 7, true)
			if !rep.Correct {
				t.Fatalf("errors: %v", rep.Errors)
			}
			if len(rep.Metrics) != len(perLayer) {
				t.Fatalf("%d metrics, want %d", len(rep.Metrics), len(perLayer))
			}
			present := 0
			for i, m := range rep.Metrics {
				if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
					t.Errorf("metric %d is %s %s, want %s %s", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
				}
				if !m.Absent {
					present++
				}
				if m.Name == "bench.trace_overhead_pct" && m.Absent {
					t.Error("no tracing overhead")
				}
			}
			if present < 15 {
				t.Errorf("only %d layer metrics present", present)
			}
			if len(rep.spans) == 0 {
				t.Error("no spans recorded")
			}
		})
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + by
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		bound          float64
		higherBetter   bool
		want           string
	}{
		{"faster wins", parent, shift(parent, -10), 0.1, false, "win"},
		{"higher throughput wins", parent, shift(parent, 10), 0.1, true, "win"},
		{"within bound", parent, shift(parent, 3), 0.1, false, "unchanged"},
		{"beyond bound", parent, shift(parent, 20), 0.1, false, "regression"},
		{"too few pairs won", parent, append(shift(parent[:8], -10), 150, 150), 0.1, false, "unchanged"},
		{"gap inside the parent's spread", noisy, shift(noisy, -5), 0.5, false, "unchanged"},
		{"spread beyond bound", noisy, shift(noisy, 5), 0.1, false, "unresolved"},
		{"spread beyond bound, every run better", noisy, []float64{50, 51, 52, 53, 54, 55, 56, 57, 58, 59}, 0.1, false, "win"},
		{"layer metric repeats", parent, parent, 0, false, "same"},
		{"layer metric moves", parent, shift(parent, 1), 0, false, "info"},
	} {
		if got := judge(tc.parent, tc.change, tc.bound, tc.higherBetter).Verdict; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	// Unresolved unless every change run beats every parent run.
	if got := judge(noisy, shift(noisy, -100), 0.1, false).Verdict; got != "better" && got != "win" {
		t.Errorf("all-better: %s", got)
	}
	if got := judge([]float64{60, 140, 80, 120}, []float64{59, 58, 57, 150}, 0.1, false).Verdict; got != "unresolved" {
		t.Errorf("mixed: %s", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("1..10: %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("1..3: %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Layer: "client", Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Layer: "server", Start: at(1), End: at(5)},
		{ID: 3, Parent: 1, Layer: "sim", Start: at(4), End: at(8)},   // overlaps its sibling
		{ID: 4, Parent: 3, Layer: "cgct", Start: at(7), End: at(12)}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"client": 3 * time.Millisecond, "server": 4 * time.Millisecond, "sim": 3 * time.Millisecond, "cgct": 5 * time.Millisecond}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("%s self time %v, want %v", layer, got[layer], d)
		}
	}
}

// The final line carries exactly the keys the benchmark contract names.
func TestSummaryLine(t *testing.T) {
	rep := &report{Workload: "serve-zipf", Seed: 1, Correct: true, Attempted: 3,
		Metrics: []reported{{Name: "setup_s", Unit: "s", Value: 1.5}}}
	line, ok := summaryLine([]*report{rep}, false)
	if !ok {
		t.Fatal("correct report summarised as a failure")
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("keys of %s", line)
	}
	if !strings.Contains(line, `"setup_s":{"value":1.5,"unit":"s"}`) {
		t.Errorf("metric missing from %s", line)
	}
}

// BENCHMARK.json must declare exactly the workloads and metrics the
// benchmark reports.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var f struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloadOrder) {
		t.Fatalf("%d workloads, want %d", len(f.Workloads), len(workloadOrder))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: %s, want %s", i, w.Name, workloadOrder[i])
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && math.Abs(*m.Bound-d.Bound) > 1e-12) {
				t.Errorf("%s %s: bound %v, want %v", kind, m.Name, m.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
}

// The benchmark must keep working when the roadmap retires the parallel
// engines and the hand-kept metrics struct, so it may not call them.
func TestSourceGuard(t *testing.T) {
	retired := regexp.MustCompile(`\b(SimParallelism|VariantsPerDecode|DefaultVariantsPerDecode|Sched|RunVariants|RunAll|RunLockstep|Fanout|NewFanout|DecodeShares|RunsInflight|WindowStallsTotal|PartitionsInflight|PartitionEvents|AllocSeq|DrainWindow|AdvanceTo|PeekTime)\b|server\.Metrics\b|\.Metrics\(ctx`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if m := retired.FindString(line); m != "" {
				t.Errorf("%s:%d uses %s, which the roadmap retires", f, i+1, m)
			}
		}
	}
}
