package main

// decl declares one printed metric: its name and unit. BENCHMARK.json
// declares the same lists; the self-test checks that they agree.
type decl struct{ name, unit string }

// endToEndMetrics are printed by every --trace 0 run.
var endToEndMetrics = []decl{
	{"setup_s", "s"},
	{"tuples_per_sec", "1/s"},
	{"outputs", "count"},
	{"ok_ops_frac", "ratio"},
	{"peak_rss_mb", "MiB"},
}

// perLayerMetrics are printed by every --trace 1 run. A layer that is
// not on the workload's ladder reports 0 (see README.md).
var perLayerMetrics = []decl{
	{"server.feedb_burst_us_p50", "us"},
	{"server.feedb_burst_us_p99", "us"},
	{"server.self_ns_per_tuple", "ns"},
	{"server.batch_fill_p50", "count"},
	{"server.batch_flushes", "count"},
	{"server.subs_dropped", "count"},
	{"admission.admit_ns_p50", "ns"},
	{"admission.self_ns_per_tuple", "ns"},
	{"admission.shed", "count"},
	{"admission.rejected", "count"},
	{"durable.append_us_p50", "us"},
	{"durable.append_us_p99", "us"},
	{"durable.sync_us_p50", "us"},
	{"durable.append_bytes_per_tuple", "B"},
	{"durable.fsyncs", "count"},
	{"durable.self_ns_per_tuple", "ns"},
	{"runtime.feedbatch_us_p50", "us"},
	{"runtime.feedbatch_us_p99", "us"},
	{"runtime.flush_ms", "ms"},
	{"runtime.queue_len_p50", "count"},
	{"runtime.queue_len_max", "count"},
	{"runtime.result_latency_p50_ms", "ms"},
	{"runtime.result_latency_samples", "count"},
	{"runtime.result_latency_p90_ms", "ms"},
	{"runtime.result_latency_p99_ms", "ms"},
	{"runtime.migrate_call_ms_p50", "ms"},
	{"runtime.migrate_call_ms_max", "ms"},
	{"runtime.self_ns_per_tuple", "ns"},
	{"engine.ns_per_tuple", "ns"},
	{"engine.probes_per_tuple", "count"},
	{"engine.inserts_per_tuple", "count"},
	{"engine.evictions_per_tuple", "count"},
	{"engine.allocs_per_tuple", "count"},
	{"engine.alloc_bytes_per_tuple", "B"},
	{"core.completions", "count"},
	{"core.completed_entries", "count"},
	{"core.entries_per_completion", "count"},
	{"core.transitions", "count"},
	{"state.bytes", "B"},
	{"statestore.faults_per_tuple", "count"},
	{"statestore.fault_tuples", "count"},
	{"statestore.hit_ratio", "ratio"},
	{"statestore.spills", "count"},
	{"statestore.segment_bytes", "B"},
	{"statestore.garbage_ratio", "ratio"},
	{"statestore.compactions", "count"},
	{"migrate.jisc_tuples_per_sec", "1/s"},
	{"migrate.moving_state_tuples_per_sec", "1/s"},
	{"migrate.parallel_track_tuples_per_sec", "1/s"},
	{"migrate.jisc_over_moving_state", "ratio"},
	{"migrate.jisc_over_parallel_track", "ratio"},
	{"gen.lag_ms_max", "ms"},
	{"trace.traced_tuples_per_sec", "1/s"},
	{"trace.untraced_tuples_per_sec", "1/s"},
	{"trace.traced_over_untraced", "ratio"},
}
