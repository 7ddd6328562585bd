package main

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions (bench_test.go keeps the two in step); Bound
// is the share of the parent's median by which an end-to-end metric may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics a user sees. Every workload reports each of
// them, with the operation that the latency and throughput count named
// per workload in README.md. The bounds are wide because the 2-vCPU host
// the baseline was measured on drifts by up to 20% over minutes: one seed
// repeated back to back read 750-946 requests/s.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer are the traced run's layer metrics, named after the module they
// measure. A metric a workload does not exercise is reported as absent.
var perLayer = []metricDef{
	{"experiments.fig8_overall_err_pp", "pp", "lower", 0},
	{"experiments.fig8_commercial_err_pp", "pp", "lower", 0},
	{"experiments.cpu_per_wall", "ratio", "higher", 0},
	{"experiments.parallel_efficiency", "ratio", "higher", 0},
	{"experiments.self_ms", "ms", "lower", 0},

	{"cgct.trace_compile_ms", "ms", "lower", 0},
	{"cgct.simulate_ms", "ms", "lower", 0},
	{"cgct.aggregate_ms", "ms", "lower", 0},
	{"cgct.self_ms", "ms", "lower", 0},

	{"sim.events", "count", "lower", 0},
	{"sim.host_ns_per_event", "ns", "lower", 0},
	{"sim.broadcasts", "count", "lower", 0},
	{"sim.directs", "count", "higher", 0},
	{"sim.locals", "count", "higher", 0},
	{"sim.dir_messages", "count", "lower", 0},
	{"sim.self_ms", "ms", "lower", 0},

	{"trace.compilations", "count", "lower", 0},
	{"trace.compile_ns_per_op", "ns", "lower", 0},
	{"trace.cache_hit_ratio", "ratio", "higher", 0},
	{"trace.resident_mb", "MB", "lower", 0},
	{"trace.self_ms", "ms", "lower", 0},

	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.alloc_mb", "MB", "lower", 0},
	{"runtime.mallocs", "count", "lower", 0},

	{"server.queued_ms_p50", "ms", "lower", 0},
	{"server.elapsed_ms_p50.mem", "ms", "lower", 0},
	{"server.elapsed_ms_p50.store", "ms", "lower", 0},
	{"server.elapsed_ms_p50.peer", "ms", "lower", 0},
	{"server.elapsed_ms_p50.sim", "ms", "lower", 0},
	{"server.self_ms", "ms", "lower", 0},

	{"serve.latency_p95_ms", "ms", "lower", 0},
	{"serve.mem_p50_ms", "ms", "lower", 0},
	{"serve.mem_p99_ms", "ms", "lower", 0},
	{"serve.store_p50_ms", "ms", "lower", 0},
	{"serve.store_p95_ms", "ms", "lower", 0},
	{"serve.store_p99_ms", "ms", "lower", 0},
	{"serve.sim_p50_ms", "ms", "lower", 0},
	{"serve.sim_p95_ms", "ms", "lower", 0},
	{"serve.peer_p50_ms", "ms", "lower", 0},
	{"serve.peer_p95_ms", "ms", "lower", 0},
	{"serve.mem_share", "ratio", "higher", 0},
	{"serve.store_share", "ratio", "higher", 0},
	{"serve.peer_share", "ratio", "higher", 0},
	{"serve.sim_share", "ratio", "lower", 0},

	{"client.polls_per_job", "count", "lower", 0},
	{"client.http_rtt_us_p50", "us", "lower", 0},
	{"client.self_ms", "ms", "lower", 0},

	{"runcache.hit_ratio", "ratio", "higher", 0},
	{"runcache.evictions", "count", "lower", 0},

	{"store.get_us_p50", "us", "lower", 0},
	{"store.get_us_p99", "us", "lower", 0},
	{"store.put_us_p50", "us", "lower", 0},
	{"store.hits", "count", "higher", 0},
	{"store.misses", "count", "lower", 0},
	{"store.writes", "count", "lower", 0},
	{"store.self_ms", "ms", "lower", 0},

	{"cluster.fetch_ms_p50", "ms", "lower", 0},
	{"cluster.fetch_ms_p95", "ms", "lower", 0},
	{"cluster.fetch_hit_ratio", "ratio", "higher", 0},
	{"cluster.replication_pushes", "count", "lower", 0},
	{"cluster.replication_errors", "count", "lower", 0},
	{"cluster.resimulations", "count", "lower", 0},
	{"cluster.self_ms", "ms", "lower", 0},

	{"bench.trace_overhead_pct", "%", "lower", 0},
}

// pooled are the layer percentiles computed over the latency samples of
// every child process of a run, so each has enough samples beyond it.
var pooled = []struct {
	metric, series string
	q              float64
}{
	{"serve.latency_p95_ms", "all", 0.95},
	{"serve.mem_p50_ms", "mem", 0.50},
	{"serve.mem_p99_ms", "mem", 0.99},
	{"serve.store_p50_ms", "store", 0.50},
	{"serve.store_p95_ms", "store", 0.95},
	{"serve.store_p99_ms", "store", 0.99},
	{"serve.sim_p50_ms", "sim", 0.50},
	{"serve.sim_p95_ms", "sim", 0.95},
	{"serve.peer_p50_ms", "peer", 0.50},
	{"serve.peer_p95_ms", "peer", 0.95},
	{"server.queued_ms_p50", "queued", 0.50},
	{"server.elapsed_ms_p50.mem", "elapsed.mem", 0.50},
	{"server.elapsed_ms_p50.store", "elapsed.store", 0.50},
	{"server.elapsed_ms_p50.peer", "elapsed.peer", 0.50},
	{"server.elapsed_ms_p50.sim", "elapsed.sim", 0.50},
	{"client.http_rtt_us_p50", "client.rtt_us", 0.50},
	{"store.get_us_p50", "store.get_us", 0.50},
	{"store.get_us_p99", "store.get_us", 0.99},
	{"store.put_us_p50", "store.put_us", 0.50},
	{"cluster.fetch_ms_p50", "cluster.fetch_ms", 0.50},
	{"cluster.fetch_ms_p95", "cluster.fetch_ms", 0.95},
}

// tiers are the result sources a served request can come from: the
// memory cache, the persistent store, a cluster peer, or a simulation.
var tiers = []string{"mem", "store", "peer", "sim"}
