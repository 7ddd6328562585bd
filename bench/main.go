// Command bench is the repository benchmark: four workloads that exercise
// the experiments sweeps and the serving path end to end, each run in
// fresh child processes so every cache and counter starts cold. See
// README.md for the workloads, metrics and bounds.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload sweep-fig8 --seed 1 --seconds 6 --trace 0
//
// or, from bench/:
//
//	go run . -seed 1                      # every workload, untraced
//	go run . -workload serve-zipf -trace 1 # per-layer metrics and spans
//	go run . -runs 10 -out .bench_build/parent.json
//	go run . -compare .bench_build/parent.json .bench_build/change.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero when
// any output check fails.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout))
}

// options are the parent's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    string
	out      string
	runs     int
	compare  string
	tiny     bool // self-test sizes
	workdir  string
}

const (
	// minChildren is the fewest child processes a run starts, so set-up
	// time is a median of several set-ups.
	minChildren = 3
	// runBudget stops starting children once a run would exceed it.
	runBudget = 150 * time.Second
)

func parentMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload inputs are derived from")
	fs.Float64Var(&o.seconds, "seconds", 6, "timed seconds per run, summed over its child processes")
	fs.StringVar(&o.trace, "trace", "0", "0: untraced, end-to-end metrics; 1: traced, per-layer metrics, spans under -workdir; any other value: traced, spans written to that path")
	fs.StringVar(&o.out, "out", "", "write every run's metrics and their medians and quartiles to this JSON file")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload, with seeds seed, seed+1, ...")
	fs.StringVar(&o.compare, "compare", "", "compare this -out file (the parent) with the file named by the first argument (the change)")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "scratch directory for stores and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "bench: -compare parent.json needs the change's file as an argument")
			return 2
		}
		return compareMain(o.compare, fs.Arg(0), stdout)
	}
	names := workloadOrder
	if o.workload != "all" {
		if _, ok := workloads[o.workload]; !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadOrder, ", "))
			return 2
		}
		names = []string{o.workload}
	}
	if o.runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: -runs must be at least 1")
		return 2
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	traced := o.trace != "0" && o.trace != ""

	var reports []*report
	for r := 0; r < o.runs; r++ {
		for _, w := range names {
			rep := runWorkload(o, w, o.seed+uint64(r), traced)
			if traced {
				path := o.trace
				if path == "1" {
					path = filepath.Join(o.workdir, "spans.json")
				}
				if len(names) > 1 || o.runs > 1 {
					ext := filepath.Ext(path)
					path = fmt.Sprintf("%s-%s-%d%s", strings.TrimSuffix(path, ext), w, rep.Seed, ext)
				}
				if err := writeSpans(path, rep.spans); err != nil {
					rep.fail(fmt.Errorf("writing spans: %w", err))
				} else {
					fmt.Fprintf(stdout, "  spans: %d written to %s\n", len(rep.spans), path)
				}
			}
			rep.print(stdout)
			reports = append(reports, rep)
		}
	}
	if o.out != "" {
		if err := writeResults(o.out, o.seconds, reports); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", o.out)
	}
	line, ok := summaryLine(reports, len(names) > 1 || o.runs > 1)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

// report is one run of one workload: the aggregate of its children.
type report struct {
	Workload  string     `json:"workload"`
	Seed      uint64     `json:"seed"`
	Traced    bool       `json:"traced"`
	Children  int        `json:"children"`
	Correct   bool       `json:"correct"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Errors    []string   `json:"errors,omitempty"`
	Digest    string     `json:"results_digest"`
	Metrics   []reported `json:"metrics"`
	spans     []span
}

// reported is one metric of a run. N is the number of samples behind it:
// latency samples for a percentile, child processes for a median.
type reported struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	N      int     `json:"n,omitempty"`
	Base   string  `json:"base,omitempty"`
	Absent bool    `json:"absent,omitempty"`
}

func (r *report) fail(err error) {
	r.Failed++
	r.Correct = false
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// runWorkload runs one workload in child processes until the timed phases
// add up to the requested seconds (and at least minChildren ran). A traced
// run's first child is untraced: the overhead baseline.
func runWorkload(o options, w string, seed uint64, traced bool) *report {
	rep := &report{Workload: w, Seed: seed, Traced: traced, Correct: true}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget+25*time.Second)
	defer cancel()
	var results []*childResult
	var measured float64
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if len(results) >= minChildren && (measured >= o.seconds || time.Since(start)+last > runBudget) {
			break
		}
		childTraced := traced && i > 0
		t0 := time.Now()
		res, spans, err := spawn(ctx, o, w, seed, childTraced, i)
		last = time.Since(t0)
		if err != nil {
			rep.Attempted++
			rep.fail(err)
			return rep
		}
		results = append(results, res)
		measured += res.MeasuredS
		for _, s := range spans {
			off := uint64(i) << 40 // span ids are unique per child; keep them unique per run
			s.ID += off
			if s.Parent != 0 {
				s.Parent += off
			}
			if s.Trace != 0 {
				s.Trace += off
			}
			rep.spans = append(rep.spans, s)
		}
	}
	rep.Children = len(results)
	for _, res := range results {
		rep.Attempted += res.Attempted
		rep.Failed += res.Failed
		for _, e := range res.Errors {
			if len(rep.Errors) < 8 {
				rep.Errors = append(rep.Errors, e)
			}
		}
		if rep.Digest == "" {
			rep.Digest = res.Digest
		} else if res.Digest != rep.Digest {
			rep.fail(fmt.Errorf("results digest differs between child processes: %.16s vs %.16s", rep.Digest, res.Digest))
		}
	}
	if rep.Failed > 0 {
		rep.Correct = false
	}
	if traced {
		rep.Metrics = layerMetrics(results)
	} else {
		rep.Metrics = endToEndMetrics(results)
	}
	return rep
}

// spawn runs one child process of this binary and decodes its result.
func spawn(ctx context.Context, o options, w string, seed uint64, traced bool, i int) (*childResult, []span, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	args := []string{"-workload", w, "-seed", fmt.Sprint(seed), "-workdir", o.workdir}
	if o.tiny {
		args = append(args, "-tiny")
	}
	var spansPath string
	if traced {
		spansPath = filepath.Join(o.workdir, fmt.Sprintf("child-%d-%d.spans.json", os.Getpid(), i))
		args = append(args, "-spans", spansPath)
		defer os.Remove(spansPath)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s child process: %w", w, err)
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, nil, fmt.Errorf("%s child process: decoding its result: %w", w, err)
	}
	var spans []span
	if traced {
		if spans, err = readSpans(spansPath); err != nil {
			return nil, nil, fmt.Errorf("%s child process: %w", w, err)
		}
	}
	return &res, spans, nil
}

// endToEndMetrics aggregates the children of an untraced run: medians over
// children, and the request latency percentile over every child's samples.
func endToEndMetrics(results []*childResult) []reported {
	per := func(f func(*childResult) float64) []float64 {
		out := make([]float64, len(results))
		for i, r := range results {
			out[i] = f(r)
		}
		return out
	}
	n := len(results)
	latency := reported{Name: "latency_p50_ms", Unit: "ms"}
	if all := pool(results, "all"); len(all) > 0 {
		latency.Value, latency.N = median(all), len(all)
	} else {
		latency.Value, latency.N = median(per(func(r *childResult) float64 { return r.MeasuredS * 1000 })), n
	}
	return []reported{
		{Name: "setup_s", Unit: "s", Value: median(per(func(r *childResult) float64 { return r.SetupS })), N: n},
		{Name: "throughput_per_s", Unit: "1/s", Value: median(per(func(r *childResult) float64 { return r.Work / r.MeasuredS })), N: n},
		latency,
		{Name: "peak_rss_mb", Unit: "MB", Value: median(per(func(r *childResult) float64 { return r.PeakRSSMB })), N: n},
	}
}

// pool concatenates one sample series over children.
func pool(results []*childResult, series string) []float64 {
	var out []float64
	for _, r := range results {
		out = append(out, r.Samples[series]...)
	}
	return out
}

// layerMetrics aggregates a traced run: medians of the traced children's
// layer metrics, percentiles over pooled samples, and the tracing overhead
// against the untraced first child.
func layerMetrics(results []*childResult) []reported {
	pooledBy := map[string]int{}
	for i, p := range pooled {
		pooledBy[p.metric] = i
	}
	untraced, traced := results[0], results[1:]
	var out []reported
	for _, d := range perLayer {
		m := reported{Name: d.Name, Unit: d.Unit, Absent: true}
		if i, ok := pooledBy[d.Name]; ok {
			p := pooled[i]
			if xs := pool(results, p.series); len(xs) > 0 && beyond(len(xs), p.q) >= 10 {
				m.Value, m.N, m.Absent = percentile(xs, p.q), len(xs), false
			}
		} else if d.Name == "bench.trace_overhead_pct" {
			var tps []float64
			for _, r := range traced {
				tps = append(tps, r.Work/r.MeasuredS)
			}
			m.Value = 100 * (untraced.Work/untraced.MeasuredS/median(tps) - 1)
			m.N, m.Absent = len(results), false
		} else {
			var vs []float64
			for _, r := range traced {
				if v, ok := r.Layer[d.Name]; ok {
					vs = append(vs, v.V)
					m.Base = v.Base
				}
			}
			if len(vs) > 0 {
				m.Value, m.N, m.Absent = median(vs), len(vs), false
			}
		}
		out = append(out, m)
	}
	return out
}

// print writes the run's human-readable report.
func (r *report) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s seed %d: %d child processes, %s\n", r.Workload, r.Seed, r.Children, mode)
	for _, m := range r.Metrics {
		if m.Absent {
			fmt.Fprintf(w, "  %-36s absent\n", m.Name)
			continue
		}
		line := fmt.Sprintf("  %-36s %14.6g %-6s n=%d", m.Name, m.Value, m.Unit, m.N)
		if m.Base != "" {
			line += "  (" + m.Base + ")"
		}
		fmt.Fprintln(w, line)
	}
	rate := 0.0
	if r.Attempted > 0 {
		rate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  %-36s %14.6g %-6s (%d failed of %d attempted)\n", "error_rate", rate, "ratio", r.Failed, r.Attempted)
	fmt.Fprintf(w, "  %-36s %s\n", "results_digest", r.Digest)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}

// summaryLine renders the final JSON line. With several reports, metric
// names are prefixed by workload (and seed, across runs).
func summaryLine(reports []*report, prefixed bool) (string, bool) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	seeds := map[uint64]bool{}
	for _, r := range reports {
		seeds[r.Seed] = true
	}
	for _, r := range reports {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, m := range r.Metrics {
			name := m.Name
			if prefixed {
				name = r.Workload + "." + name
				if len(seeds) > 1 {
					name = fmt.Sprintf("%s.%d.%s", r.Workload, r.Seed, m.Name)
				}
			}
			out.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Sprintf(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}, "error": %q}`, err.Error()), false
	}
	return string(data), out.Correct && out.Attempted > 0
}

// host records what the numbers were measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"go_max_procs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// summaryStat is one (workload, metric)'s distribution over runs.
type summaryStat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Runs   int     `json:"runs"`
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Host    host                              `json:"host"`
	Seconds float64                           `json:"seconds"`
	Reports []*report                         `json:"reports"`
	Summary map[string]map[string]summaryStat `json:"summary"`
}

func writeResults(path string, seconds float64, reports []*report) error {
	f := resultsFile{
		Host: host{
			NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		},
		Seconds: seconds,
		Reports: reports,
		Summary: summarize(reports),
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// summarize gives each (workload, metric) its median and quartiles over
// the runs that measured it.
func summarize(reports []*report) map[string]map[string]summaryStat {
	vals := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range reports {
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for _, m := range r.Metrics {
			if !m.Absent {
				vals[r.Workload][m.Name] = append(vals[r.Workload][m.Name], m.Value)
				units[m.Name] = m.Unit
			}
		}
	}
	out := map[string]map[string]summaryStat{}
	for w, byName := range vals {
		out[w] = map[string]summaryStat{}
		for name, xs := range byName {
			q1, q2, q3 := quartiles(xs)
			out[w][name] = summaryStat{Unit: units[name], Median: q2, Q1: q1, Q3: q3, Runs: len(xs)}
		}
	}
	return out
}

// readResults reads a file written by -out.
func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Reports) == 0 {
		return nil, errors.New(path + ": no runs")
	}
	return &f, nil
}
