package main

// metric declares one reported metric. BENCHMARK.json at the repository root
// repeats these declarations; TestBenchmarkJSONMatches keeps the two equal.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the host-time metrics a user of the simulator waits on,
// measured on untraced reps. Bound is the share of the baseline median by
// which a metric may worsen before a change counts as a regression. The time
// bounds are wide because the other tenants of a shared host move a run's
// median by up to 70% for minutes at a time (README.md, Noise).
var endToEnd = []metric{
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayer are the metrics of single layers, named after the internal/
// packages. *_self_s values come from the traced rep's CPU profile; counts
// are deterministic per (workload, seed).
var perLayer = []metric{
	{"sim.self_s", "s", "lower", 0},
	{"sim.cycles", "cycles", "lower", 0},
	{"sim.ns_per_simcycle", "ns/cycle", "lower", 0},
	{"sim.events", "count", "lower", 0},
	{"sim.events_per_simcycle", "count/cycle", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},

	{"bus.self_s", "s", "lower", 0},
	{"bus.txns", "count", "lower", 0},
	{"bus.data_msgs", "count", "lower", 0},
	{"bus.markers", "count", "lower", 0},
	{"bus.probes", "count", "lower", 0},
	{"bus.msgs_per_simcycle", "count/cycle", "lower", 0},
	{"bus.arb_stall_cycles", "cycles", "lower", 0},

	{"cache.self_s", "s", "lower", 0},
	{"cache.accesses", "count", "lower", 0},
	{"cache.misses", "count", "lower", 0},
	{"cache.miss_ratio", "ratio", "lower", 0},
	{"cache.upgrades", "count", "lower", 0},
	{"cache.writebacks", "count", "lower", 0},

	{"coherence.self_s", "s", "lower", 0},
	{"coherence.nacks_sent", "count", "lower", 0},
	{"coherence.chained_requests", "count", "lower", 0},

	{"core.self_s", "s", "lower", 0},
	{"core.starts", "count", "lower", 0},
	{"core.commits", "count", "higher", 0},
	{"core.aborts", "count", "lower", 0},
	{"core.fallbacks", "count", "lower", 0},
	{"core.deferrals", "count", "lower", 0},
	{"core.defer_overflows", "count", "lower", 0},
	{"core.commit_ratio", "ratio", "higher", 0},
	{"stamp.self_s", "s", "lower", 0},

	{"proc.cpu_self_s", "s", "lower", 0},
	{"proc.thread_self_s", "s", "lower", 0},
	{"proc.handoff_s", "s", "lower", 0},
	{"proc.reset_self_s", "s", "lower", 0},
	{"proc.stall_self_s", "s", "lower", 0},
	{"proc.machine_self_s", "s", "lower", 0},
	{"proc.ops", "count", "lower", 0},
	{"proc.ops_per_simcycle", "count/cycle", "higher", 0},
	{"proc.busy_cycles", "cycles", "lower", 0},
	{"proc.lock_stall_cycles", "cycles", "lower", 0},
	{"proc.data_stall_cycles", "cycles", "lower", 0},
	{"proc.deadlock_recoveries", "count", "lower", 0},
	{"proc.max_retries", "count", "lower", 0},

	{"checker.self_s", "s", "lower", 0},
	{"locks.self_s", "s", "lower", 0},
	{"memsys.self_s", "s", "lower", 0},

	{"workloads.self_s", "s", "lower", 0},
	{"workloads.setup_span_s", "s", "lower", 0},
	{"workloads.validate_span_s", "s", "lower", 0},

	{"harness.self_s", "s", "lower", 0},
	{"harness.machines", "count", "lower", 0},
	{"harness.machine_ms_p50", "ms", "lower", 0},
	{"harness.machine_ms_phi", "ms", "lower", 0},

	{"litmus.enum_self_s", "s", "lower", 0},
	{"litmus.model_self_s", "s", "lower", 0},
	{"litmus.run_self_s", "s", "lower", 0},
	{"litmus.enumerate_span_s", "s", "lower", 0},
	{"litmus.programs", "count", "lower", 0},
	{"litmus.machine_runs", "count", "lower", 0},
	{"litmus.ref_outcomes", "count", "lower", 0},
	{"litmus.observed_outcomes", "count", "lower", 0},
	{"litmus.divergences", "count", "lower", 0},
	{"litmus.program_ms_p50", "ms", "lower", 0},
	{"litmus.program_ms_phi", "ms", "lower", 0},

	{"metrics.self_s", "s", "lower", 0},
	{"metrics.dump_bytes", "bytes", "lower", 0},
	{"telemetry.self_s", "s", "lower", 0},
	{"telemetry.window_bytes", "bytes", "lower", 0},
	{"trace.self_s", "s", "lower", 0},
	{"fault.self_s", "s", "lower", 0},
	{"fault.injected", "count", "lower", 0},

	{"runtime.gc_s", "s", "lower", 0},
	{"runtime.other_s", "s", "lower", 0},
	{"runtime.alloc_mb", "MB", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},

	{"bench.self_s", "s", "lower", 0},
	{"trace_overhead", "ratio", "lower", 0},
	{"profile_coverage", "ratio", "higher", 0},
}
