package main

// metricDef names one benchmark metric. BENCHMARK.json lists the same names,
// units and directions; bench_test.go holds the two in step.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are measured with tracing off, on every workload. Each is a steady
// time (stats.go) divided by the run's machine slowdown (calibrate.go).
var endToEnd = []metricDef{
	// Wall-clock seconds of one repetition of the workload's whole flow, from
	// built inputs to every result the workload produces.
	{"time_to_result_s", "s", "lower"},
	// Process CPU seconds (user + system, every thread) one repetition
	// consumes: the cost that remains when more cores hide the wall clock.
	{"cpu_per_result_s", "s", "lower"},
	// Wall-clock seconds of everything before the first timed call.
	{"setup_s", "s", "lower"},
}

// perLayer come from the traced pass, as the clock read them: they are not
// divided by the machine slowdown. A layer a workload never enters reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Front end: sweep_s on corpus-models, setup_s elsewhere.
		{"circuit.generate_synth_s", "s", "lower"},
		{"corpus.materialize_s", "s", "lower"},
		{"sim.compile_s", "s", "lower"},
		{"sim.kernel_build_s", "s", "lower"},
		{"sim.golden_s", "s", "lower"},
		{"features.extract_s", "s", "lower"},
		{"core.study_build_s", "s", "lower"},
		// Simulator core.
		{"sim.ns_per_lane_cycle", "ns", "lower"},
		{"sim.gate_evals_per_s", "1/s", "higher"},
		{"sim.kernel_ops", "count", "lower"},
		{"sim.kernel_op_ratio", "ratio", "lower"},
		{"sim.snapshot_bytes", "B", "lower"},
		// Campaign runtime.
		{"fault.plan_s", "s", "lower"},
		{"fault.campaign_s", "s", "lower"},
		{"fault.partial_campaign_s", "s", "lower"},
		{"fault.ns_per_injection", "ns", "lower"},
		{"fault.injections", "count", "lower"},
		{"fault.batches", "count", "lower"},
		{"fault.sim_cycles", "count", "lower"},
		{"fault.replay_cycles", "count", "lower"},
		{"fault.cycle_skip_ratio", "ratio", "higher"},
		{"fault.checkpoint_roundtrip_s", "s", "lower"},
		// Learning.
		{"ml.split_s", "s", "lower"},
		{"ml.table1_s", "s", "lower"},
		{"ml.learning_curve_s", "s", "lower"},
		{"ml.tune_s", "s", "lower"},
		// Planner.
		{"plan.rounds", "count", "lower"},
		{"plan.ffs_measured", "count", "lower"},
		{"plan.round_s", "s", "lower"},
		{"plan.overhead_s", "s", "lower"},
		// Artifacts and serving.
		{"persist.save_s", "s", "lower"},
		{"persist.load_s", "s", "lower"},
		{"persist.artifact_bytes", "B", "lower"},
		{"serve.handler_s", "s", "lower"},
		{"serve.rps", "1/s", "higher"},
		{"serve.p50_ms", "ms", "lower"},
		{"serve.p99_ms", "ms", "lower"},
		{"serve.cache_hit_ratio", "ratio", "higher"},
		{"serve.coalesced", "count", "higher"},
		{"serve.shed_429", "count", "lower"},
		{"api.encode_s", "s", "lower"},
		{"api.decode_s", "s", "lower"},
		// Fabric.
		{"fabric.overhead_s", "s", "lower"},
		{"fabric.join_s", "s", "lower"},
		{"fabric.rpcs", "count", "lower"},
		{"fabric.rpc_bytes", "B", "lower"},
		{"fabric.worker_busy_frac", "ratio", "higher"},
		// Stages of mac-estimate that cross layers, and the benchmark itself.
		{"bench.estimate_s", "s", "lower"},
		{"bench.adaptive_estimate_s", "s", "lower"},
		{"bench.estimate_r2", "ratio", "higher"},
		{"bench.trace_overhead_frac", "ratio", "lower"},
		{"bench.attributed_frac", "ratio", "higher"},
		{"bench.machine_slowdown", "ratio", "lower"},
		{"bench.clock_time_to_result_s", "s", "lower"},
	}
	for _, m := range modelNames {
		defs = append(defs,
			metricDef{"ml.fit_s." + m, "s", "lower"},
			metricDef{"ml.predict_s." + m, "s", "lower"})
	}
	return defs
}()

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render pairs every definition with its measured value; an absent one is 0.
func render(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
