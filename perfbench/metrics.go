package main

// metricDef names one reported metric and its unit. The lists must
// match BENCHMARK.json (metrics_test.go checks it).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports each one; README.md gives the per-workload definitions.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"time_to_solution_s", "s"},
	{"factor_mb", "MB"},
	{"residual_rel", "ratio"},
	{"solve_p50_ms", "ms"},
	{"factorize_p50_ms", "ms"},
	{"ok_frac", "share"},
}

// perLayer are the single-layer metrics a traced run (--trace 1)
// reports. A layer that does not run in a workload reports 0.
var perLayer = []metricDef{
	// The solve tail and the saturation rate are reported here, without
	// a bound: on a shared 2-vCPU host their run-to-run spread
	// (IQR/median over ten runs) exceeded the 0.25 the end-to-end
	// metrics are held to.
	{"solve_p99_ms", "ms"},
	{"sat_rate_rps", "1/s"},

	{"rbf.problem_s", "s"},
	{"rbf.assemble_busy_s", "s"},

	{"tilemat.compress_s", "s"},
	{"tilemat.ratio", "ratio"},
	{"tilemat.rank_avg", "rank"},
	{"tilemat.rank_max", "rank"},
	{"tilemat.density", "share"},
	{"tlr.compress.lowrank", "count"},
	{"tlr.compress.zero", "count"},
	{"tlr.ara.rounds", "count"},
	{"tlr.ara.samples", "count"},

	{"trim.analyze_s", "s"},
	{"trim.tasks_executed", "count"},
	{"trim.tasks_trimmed", "count"},

	{"core.factorize_s", "s"},
	{"core.eff_gflops", "GFlop/s"},
	{"runtime.idle_share", "share"},
	{"runtime.critpath_tasks", "count"},
	{"runtime.max_ready", "count"},
	{"tasks.potrf", "count"},
	{"tasks.trsm", "count"},
	{"tasks.syrk", "count"},
	{"tasks.gemm", "count"},
	{"tasks.sytrf", "count"},
	{"tasks.trsm_d", "count"},
	{"tasks.syrk_d", "count"},
	{"tasks.gemm_d", "count"},
	{"tlr.recompress.calls", "count"},
	{"tlr.recompress.zero", "count"},
	{"gemm.fillin", "count"},
	{"workspace.pool.miss", "count"},

	{"trace.potrf_s", "s"},
	{"trace.trsm_s", "s"},
	{"trace.syrk_s", "s"},
	{"trace.gemm_s", "s"},
	{"trace.sytrf_s", "s"},
	{"trace.trsm_d_s", "s"},
	{"trace.syrk_d_s", "s"},
	{"trace.gemm_d_s", "s"},
	{"trace.gemm_max_ms", "ms"},
	{"trace.gemm_gflops", "GFlop/s"},
	{"trace.critpath_work_s", "s"},
	{"trace.critpath_bubble_s", "s"},
	{"trace.overhead_share", "share"},

	{"core.plan_build_ms", "ms"},
	{"core.solve_ms", "ms"},
	{"core.residual_ms", "ms"},
	{"core.solve_allocs", "count"},
	{"unaccounted_share", "share"},

	{"serve.queue_ms.p50", "ms"},
	{"serve.queue_ms.p99", "ms"},
	{"serve.batch_wait_ms.p50", "ms"},
	{"serve.batch_wait_ms.p99", "ms"},
	{"serve.subst_ms.p50", "ms"},
	{"serve.subst_ms.p99", "ms"},
	{"serve.resid_ms.p50", "ms"},
	{"serve.resid_ms.p99", "ms"},
	{"serve.factor_ms.p50", "ms"},
	{"serve.factor_ms.p99", "ms"},
	{"serve.batch_width", "cols"},
	{"serve.cache.hit_ratio", "share"},
	{"serve.cache.misses", "count"},
	{"serve.factorize.runs", "count"},
	{"serve.admission.rejected", "count"},
	{"solve.run.planned", "count"},
	{"solve.run.sequential", "count"},
	{"serve.trace_overhead_share", "share"},
	{"ladder.low_p99_ms", "ms"},
	{"ladder.mid_p99_ms", "ms"},
	{"ladder.high_p99_ms", "ms"},

	{"proc.alloc_mb", "MB"},
	{"proc.gc_cycles", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.conns", "count"},
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()
