package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"cgct/internal/sim"
	"cgct/internal/trace"
)

// childEnv marks a process started by the benchmark to run one workload
// once. Each run happens in a fresh process, so the compiled-trace cache,
// the result caches, the process-wide counters and peak RSS start cold, as
// they do for a fresh cgctexperiments or cgctserve.
const childEnv = "CGCT_BENCH_CHILD"

// childConfig is what one child process is asked to do.
type childConfig struct {
	workload string
	seed     uint64
	tiny     bool   // self-test sizes
	workdir  string // scratch space for stores, inside the checkout
}

// value is one layer metric as a child measured it. Base, for a ratio,
// names the counts it was computed from.
type value struct {
	V    float64 `json:"v"`
	Base string  `json:"base,omitempty"`
}

// childResult is what a child reports to its parent on one stdout line.
type childResult struct {
	SetupS    float64 `json:"setup_s"`
	MeasuredS float64 `json:"measured_s"`
	// Work is what the timed phase completed: simulated memory operations
	// for the sweeps, served requests for the serving workloads.
	Work      float64  `json:"work"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Digest    string   `json:"digest"`
	PeakRSSMB float64  `json:"peak_rss_mb"`
	// Samples holds latency samples by series ("all", a tier name,
	// "queued", ...), pooled by the parent across children.
	Samples map[string][]float64 `json:"samples,omitempty"`
	Layer   map[string]value     `json:"layer"`
}

// fail counts one failed operation and keeps its description.
func (r *childResult) fail(err error) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, err.Error())
	}
}

func (r *childResult) set(name string, v float64) { r.Layer[name] = value{V: v} }

func (r *childResult) ratio(name string, num, den float64, base string) {
	if den > 0 {
		r.Layer[name] = value{V: num / den, Base: fmt.Sprintf("%s %.6g/%.6g", base, num, den)}
	}
}

func (r *childResult) sample(series string, v float64) {
	r.Samples[series] = append(r.Samples[series], v)
}

// workloads maps each workload name to its child-side implementation.
var workloads = map[string]func(context.Context, childConfig, *tracer, *childResult) error{
	"sweep-fig8":  runSweepFig8,
	"fabric-16p":  runFabric16p,
	"serve-zipf":  runServeZipf,
	"serve-fleet": runServeFleet,
}

// workloadOrder is the order "-workload all" runs them in.
var workloadOrder = []string{"sweep-fig8", "fabric-16p", "serve-zipf", "serve-fleet"}

// childMain runs one workload once and prints its childResult.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	var c childConfig
	var spansPath string
	fs.StringVar(&c.workload, "workload", "", "workload to run")
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed")
	fs.BoolVar(&c.tiny, "tiny", false, "self-test sizes")
	fs.StringVar(&c.workdir, "workdir", ".bench_build", "scratch directory")
	fs.StringVar(&spansPath, "spans", "", "trace the run and write its spans here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[c.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench child: unknown workload %q\n", c.workload)
		return 2
	}
	var tr *tracer
	if spansPath != "" {
		tr = &tracer{}
	}
	res := &childResult{Samples: map[string][]float64{}, Layer: map[string]value{}}
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench child: %v\n", err)
		return 1
	}
	if err := run(context.Background(), c, tr, res); err != nil {
		fmt.Fprintf(os.Stderr, "bench child %s: %v\n", c.workload, err)
		return 1
	}
	res.PeakRSSMB = peakRSSMB()
	if tr != nil {
		for layer, d := range selfTimes(tr.spans) {
			res.set(layer+".self_ms", float64(d)/float64(time.Millisecond))
		}
		if err := writeSpans(spansPath, tr.spans); err != nil {
			fmt.Fprintf(os.Stderr, "bench child: writing spans: %v\n", err)
			return 1
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "bench child: %v\n", err)
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counters snapshots the process-wide counters read around a timed phase.
type counters struct {
	trace                        trace.Stats
	events                       uint64
	bcast, direct, local, dirMsg uint64
	mem                          runtime.MemStats
	cpu                          time.Duration
}

func readCounters() counters {
	var c counters
	c.trace = trace.SharedStats()
	c.events = sim.EventsTotal()
	c.bcast, c.direct, c.local, c.dirMsg = sim.FabricTraffic()
	runtime.ReadMemStats(&c.mem)
	c.cpu = cpuTime()
	return c
}

// setRuntime records the Go runtime's work between two snapshots.
func (r *childResult) setRuntime(a, b counters) {
	r.set("runtime.gc_cycles", float64(b.mem.NumGC-a.mem.NumGC))
	r.set("runtime.gc_pause_ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6)
	r.set("runtime.alloc_mb", float64(b.mem.TotalAlloc-a.mem.TotalAlloc)/(1<<20))
	r.set("runtime.mallocs", float64(b.mem.Mallocs-a.mem.Mallocs))
}
