package main

// metric is one named result and its unit. The lists below are the
// metrics BENCHMARK.json declares, in the same order; a test keeps the
// two in step. METRICS.md gives each one's reason and the end-to-end
// metric and workload it should move.
type metric struct {
	Name, Unit string
}

// endToEndMetrics are reported by an untraced run.
var endToEndMetrics = []metric{
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"setup_s", "s"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
}

// ungatedMetrics are printed by an untraced run, by name with their unit,
// but BENCHMARK.json does not declare them, so no bound applies: on a
// shared machine their median moved by more than the widest bound between
// two sets of runs of one commit.
var ungatedMetrics = []metric{
	{"latency_p99_us", "us"},
}

// perLayerMetrics are reported by a traced run. A layer that does no work
// on a workload reports 0 there.
var perLayerMetrics = []metric{
	{"event.raise_self_us", "us"},
	{"event.drain_self_us", "us"},
	{"event.raise_async_ns", "ns"},
	{"event.activations_per_op", "count"},
	{"event.generic_per_op", "count"},
	{"event.fast_per_op", "count"},
	{"event.fallbacks_per_op", "count"},
	{"event.handlers_per_op", "count"},
	{"event.timed_per_op", "count"},
	{"event.marshals_per_op", "count"},
	{"event.arg_resolves_per_op", "count"},
	{"event.indirect_per_op", "count"},
	{"event.locks_per_op", "count"},
	{"event.captured_per_op", "count"},
	{"event.capture_hit_share", "ratio"},
	{"event.hop_same_us_p50", "us"},
	{"event.hop_cross_us_p50", "us"},
	{"event.queue_len_max", "count"},
	{"event.batch_k_mean", "count"},
	{"trace.profile_run_ms", "ms"},
	{"trace.entries", "count"},
	{"profile.analyze_ms", "ms"},
	{"core.plan_ms", "ms"},
	{"core.install_ms", "ms"},
	{"core.super_handlers", "count"},
	{"hir.fused_instrs", "count"},
	{"event.tier_generic_op_us", "us"},
	{"hir.interp_op_us", "us"},
	{"hir.closure_op_us", "us"},
	{"codegen.generated_op_us", "us"},
	{"hir.dispatch_share", "ratio"},
	{"ciphers.self_us_per_op", "us"},
	{"ciphers.share", "ratio"},
	{"telemetry.overhead_pct", "%"},
	{"span.overhead_pct", "%"},
	{"adaptive.tick_us", "us"},
	{"adaptive.k_changes_per_s", "1/s"},
	{"go.gc_cpu_fraction", "ratio"},
	{"go.gc_per_kop", "count"},
	{"go.allocs_per_op", "count"},
	{"bench.trace_overhead_pct", "%"},
}
