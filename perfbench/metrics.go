package main

// perLayer are the metrics of a traced run, the union over all workloads:
// a layer one workload does not reach reads 0 in that workload's run.
// Timings are medians per call unless the name says otherwise; counts are
// medians per op (isp-failover: one fail-and-restore cycle; chaos-campaign:
// plain runs for the shared counters, self-healing runs for the healing
// ones; verify-serve: one cold proof).
var perLayer = []metricDef{
	// Every workload.
	{"trace.overhead_pct.op_a", "%"},
	{"trace.overhead_pct.op_b", "%"},
	{"trace.unattributed_pct", "%"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},

	// isp-failover.
	{"netgraph.gen_ms", "ms"},
	{"ndlog.analyze_ms", "ms"},
	{"dist.new_network_ms", "ms"},
	{"dist.converge_ms", "ms"},
	{"dist.run_ms.p50", "ms"},
	{"dist.schedule_us", "us"},
	{"dist.us_per_msg", "us"},
	{"dist.query_ms", "ms"},
	{"netgraph.truth_ms", "ms"},
	{"dist.route_changes", "count"},

	// isp-failover and chaos-campaign.
	{"dist.msgs_sent", "count"},
	{"dist.msgs_delivered", "count"},
	{"dist.derivations", "count"},
	{"dist.join_probes", "count"},
	{"dist.tuple_updates", "count"},
	{"dist.retractions", "count"},

	// chaos-campaign.
	{"faults.generate_ms", "ms"},
	{"dist.run_chaos_ms", "ms"},
	{"dist.msgs_dropped", "count"},
	{"dist.msgs_duplicated", "count"},
	{"dist.expirations", "count"},
	{"dist.delivered_ratio", "ratio"},
	{"dist.retransmits", "count"},
	{"dist.acks", "count"},
	{"dist.rel_giveups", "count"},
	{"dist.checkpoints", "count"},
	{"dist.restores", "count"},
	{"dist.repair_pulls", "count"},
	{"dist.retransmit_ratio", "ratio"},
	{"dist.recovery_sim_ms.p95", "ms"},

	// verify-serve.
	{"loadgen.offered_rps", "1/s"},
	{"loadgen.completed_rps", "1/s"},
	{"loadgen.late_ms.p90", "ms"},
	{"serve.exec_ms.p50", "ms"},
	{"serve.wait_ms.p90", "ms"},
	{"serve.refused", "count"},
	{"verify.cached_ratio", "ratio"},
	{"verify.suite_ms", "ms"},
	{"verify.cached_pipeline_ms", "ms"},
	{"verify.pipeline_ms", "ms"},
	{"metarouting.check_ms", "ms"},
	{"prover.theorem_ms", "ms"},
	{"prover.steps", "count"},
	{"prover.prim_steps", "count"},
	{"prover.auto_ratio", "ratio"},

	// model-check.
	{"bgp.build_ms", "ms"},
	{"linear.build_ms", "ms"},
	{"modelcheck.count_ms.disagree", "ms"},
	{"modelcheck.count_ms.dv", "ms"},
	{"modelcheck.lasso_ms", "ms"},
	{"modelcheck.reach_ms", "ms"},
	{"modelcheck.us_per_transition.disagree", "us"},
	{"modelcheck.us_per_transition.dv", "us"},
	{"modelcheck.states.disagree", "count"},
	{"modelcheck.states.dv", "count"},
	{"modelcheck.transitions.disagree", "count"},
	{"modelcheck.transitions.dv", "count"},
	{"modelcheck.dedup_hits.disagree", "count"},
	{"modelcheck.dedup_hits.dv", "count"},
	{"modelcheck.dedup_ratio.disagree", "ratio"},
	{"modelcheck.dedup_ratio.dv", "ratio"},
	{"modelcheck.frontier_peak.disagree", "count"},
	{"modelcheck.frontier_peak.dv", "count"},
	{"modelcheck.max_depth.disagree", "count"},
	{"modelcheck.max_depth.dv", "count"},
}
