package main

// metricSpec names one reported metric. The lists below are the
// benchmark's contract; BENCHMARK.json at the repository root mirrors
// them (TestBenchmarkJSONMatchesSpecs).
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the untraced run's metrics (--trace 0).
var endToEnd = []metricSpec{
	{"frames_per_s", "1/s", "higher", 0.25},
	{"run_s_p50", "s", "lower", 0.25},
	{"run_s_tail", "s", "lower", 0.25},
	{"cpu_s_per_run", "s", "lower", 0.25},
	{"alloc_mb_per_run", "MB", "lower", 0.05},
	{"allocs_per_run", "count", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
	{"model_speedup", "x", "higher", 0.05},
}

// perLayer are the traced run's metrics (--trace 1).
var perLayer = []metricSpec{
	{Name: "particle.resize_ns_per_particle", Unit: "ns", Better: "lower"},
	{Name: "particle.resize_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "runtime.gc_cycles_per_run", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_s_per_run", Unit: "s", Better: "lower"},
	{Name: "actions.kernel_ns_per_particle", Unit: "ns", Better: "lower"},
	{Name: "actions.kernel_bytes_per_particle", Unit: "B", Better: "lower"},
	{Name: "actions.source_ns_per_particle", Unit: "ns", Better: "lower"},
	{Name: "actions.collide_ns_per_particle", Unit: "ns", Better: "lower"},
	{Name: "particle.partition_ns_per_particle", Unit: "ns", Better: "lower"},
	{Name: "particle.donate_ns_per_particle", Unit: "ns", Better: "lower"},
	{Name: "particle.encode_ns_per_particle", Unit: "ns", Better: "lower"},
	{Name: "particle.decode_ns_per_particle", Unit: "ns", Better: "lower"},
	{Name: "transport.send_s", Unit: "s", Better: "lower"},
	{Name: "render.splat_ns_per_particle", Unit: "ns", Better: "lower"},
	{Name: "core.imggen_busy_s", Unit: "s", Better: "lower"},
	{Name: "transport.imggen_recv_wait_s", Unit: "s", Better: "lower"},
	{Name: "core.calc_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.calc_busy_s_max", Unit: "s", Better: "lower"},
	{Name: "core.manager_busy_s", Unit: "s", Better: "lower"},
	{Name: "transport.calc_recv_wait_s", Unit: "s", Better: "lower"},
	{Name: "transport.manager_recv_wait_s", Unit: "s", Better: "lower"},
	{Name: "core.frame_interval_s_p50", Unit: "s", Better: "lower"},
	{Name: "core.frame_interval_s_p99", Unit: "s", Better: "lower"},
	{Name: "transport.msgs_per_frame", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_per_frame", Unit: "B", Better: "lower"},
	{Name: "core.exchanged_particles", Unit: "count", Better: "lower"},
	{Name: "loadbalance.rounds", Unit: "count", Better: "lower"},
	{Name: "loadbalance.moved", Unit: "count", Better: "lower"},
	{Name: "loadbalance.imbalance_mean", Unit: "ratio", Better: "lower"},
	{Name: "core.seq_run_s", Unit: "s", Better: "lower"},
	{Name: "core.trace_overhead_frac", Unit: "frac", Better: "lower"},
}

// metricValue is one reported figure in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
