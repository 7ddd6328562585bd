package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// TestCompareLinesZeroBaseline is the divide-by-zero regression test: a
// zero-valued or partial baseline file must render as "(no baseline)",
// never as a NaN% or Inf% delta.
func TestCompareLinesZeroBaseline(t *testing.T) {
	results := []benchResult{
		{Name: "cgct-ocean", TraceOpsSec: 1_000_000, AllocsPerOp: 12},
		{Name: "cgct-tpcw", TraceOpsSec: 900_000},
		{Name: "zeroed", TraceOpsSec: 0},
	}
	baseline := []benchResult{
		{Name: "cgct-ocean", TraceOpsSec: 0}, // zero-valued entry
		{Name: "zeroed", TraceOpsSec: 0},     // 0/0 would be NaN
		// "cgct-tpcw" absent entirely
	}
	lines := compareLines(results, baseline, true)
	if len(lines) != len(results) {
		t.Fatalf("got %d lines for %d results", len(lines), len(results))
	}
	for _, line := range lines {
		if strings.Contains(line, "NaN") || strings.Contains(line, "Inf") {
			t.Errorf("delta line leaks a non-finite value: %q", line)
		}
		if !strings.Contains(line, "(no baseline)") {
			t.Errorf("want \"(no baseline)\" marker, got %q", line)
		}
	}
}

// TestCompareLinesDelta checks the normal path: finite percentage and
// alloc deltas against a usable baseline.
func TestCompareLinesDelta(t *testing.T) {
	results := []benchResult{{Name: "cgct-ocean", TraceOpsSec: 150, AllocsPerOp: 10}}
	baseline := []benchResult{{Name: "cgct-ocean", TraceOpsSec: 100, AllocsPerOp: 13}}
	lines := compareLines(results, baseline, true)
	if len(lines) != 1 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.Contains(lines[0], "+50.0%") || !strings.Contains(lines[0], "allocs/op -3") {
		t.Errorf("unexpected delta line: %q", lines[0])
	}
}

// TestCompareLinesNaNResult: even a corrupt current measurement must not
// leak NaN into the report.
func TestCompareLinesNaNResult(t *testing.T) {
	results := []benchResult{{Name: "x", TraceOpsSec: math.NaN()}}
	baseline := []benchResult{{Name: "x", TraceOpsSec: 100}}
	lines := compareLines(results, baseline, true)
	if len(lines) != 1 || !strings.Contains(lines[0], "(no baseline)") {
		t.Fatalf("NaN measurement not suppressed: %v", lines)
	}
}

// TestBaselineSchemaTolerance: -baseline must keep working across bench
// schema changes in either direction — a baseline from an older cgctbench
// (missing today's columns) and one from a newer cgctbench (columns this
// binary has never heard of) both load and compare without error or
// non-finite output.
func TestBaselineSchemaTolerance(t *testing.T) {
	results := []benchResult{
		{Name: "cgct-ocean", TraceOpsSec: 150, AllocsPerOp: 10},
		{Name: "sweep4-ocean-pool", TraceOpsSec: 600, Parallelism: 4},
	}
	cases := map[string]struct {
		json      string
		wantDelta bool // the cgct-ocean line carries a finite % delta
	}{
		"old schema, missing new columns": {
			json: `{"generated":"2025-01-01T00:00:00Z","num_cpu":1,"results":[
				{"name":"cgct-ocean","trace_ops_per_sec":100,"allocs_per_op":13}]}`,
			wantDelta: true,
		},
		"future schema, unknown columns": {
			json: `{"generated":"2027-01-01T00:00:00Z","quantum_cores":9,"results":[
				{"name":"cgct-ocean","trace_ops_per_sec":100,"allocs_per_op":13,"warp_factor":7},
				{"name":"sweep4-ocean-pool","trace_ops_per_sec":300,"parallelism":8}]}`,
			wantDelta: true,
		},
		"empty results": {
			json:      `{"generated":"x"}`,
			wantDelta: false,
		},
	}
	for name, tc := range cases {
		base, err := loadBaseline([]byte(tc.json))
		if err != nil {
			t.Fatalf("%s: loadBaseline: %v", name, err)
		}
		lines := compareLines(results, base.Results, true)
		if len(lines) != len(results) {
			t.Fatalf("%s: got %d lines for %d results", name, len(lines), len(results))
		}
		for _, line := range lines {
			if strings.Contains(line, "NaN") || strings.Contains(line, "Inf") {
				t.Errorf("%s: non-finite delta leaked: %q", name, line)
			}
		}
		hasDelta := strings.Contains(lines[0], "+50.0%")
		if hasDelta != tc.wantDelta {
			t.Errorf("%s: cgct-ocean delta present=%v, want %v (%q)", name, hasDelta, tc.wantDelta, lines[0])
		}
	}
	if _, err := loadBaseline([]byte(`{"results": [`)); err == nil {
		t.Error("malformed JSON did not error")
	}
}

// TestCompareLinesSkipsWallClockAcrossHosts: a baseline captured at a
// different go_max_procs ran with a different parallel budget, so the
// wall-clock-derived trace-ops/s delta is withheld and only the
// machine-shape-independent allocation delta prints.
func TestCompareLinesSkipsWallClockAcrossHosts(t *testing.T) {
	results := []benchResult{{Name: "cgct-ocean", TraceOpsSec: 150, AllocsPerOp: 10}}
	baseline := []benchResult{{Name: "cgct-ocean", TraceOpsSec: 100, AllocsPerOp: 13}}
	lines := compareLines(results, baseline, false)
	if len(lines) != 1 {
		t.Fatalf("got %d lines", len(lines))
	}
	if strings.Contains(lines[0], "trace-ops/s") || strings.Contains(lines[0], "%") {
		t.Errorf("wall-clock delta leaked across host shapes: %q", lines[0])
	}
	if !strings.Contains(lines[0], "allocs/op -3") {
		t.Errorf("allocation delta missing: %q", lines[0])
	}
}

// TestCommittedBaselineLoads: the committed BENCH_simcore.json predates
// the sweep4-ocean-pool config and still carries retired columns
// (variants_per_decode, sim_parallelism, partition_events) and the
// retired pdes-* rows; -baseline must load it, compare the configs it
// has, and mark the new one "(no baseline)".
func TestCommittedBaselineLoads(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_simcore.json")
	if err != nil {
		t.Fatal(err)
	}
	base, err := loadBaseline(data)
	if err != nil {
		t.Fatalf("committed baseline unreadable: %v", err)
	}
	results := []benchResult{
		{Name: "cgct-ocean", TraceOpsSec: 1_000_000, AllocsPerOp: 10},
		{Name: "sweep4-ocean-pool", TraceOpsSec: 600, Parallelism: 4, Variants: 4},
	}
	lines := compareLines(results, base.Results, true)
	if len(lines) != 2 {
		t.Fatalf("got %d lines for %d results", len(lines), len(results))
	}
	if !strings.Contains(lines[0], "trace-ops/s") {
		t.Errorf("cgct-ocean not compared against the committed row: %q", lines[0])
	}
	if !strings.Contains(lines[1], "(no baseline)") {
		t.Errorf("sweep4-ocean-pool: want \"(no baseline)\", got %q", lines[1])
	}
}
