package main

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// perLayerNames lists every per-layer metric a traced run prints, in
// BENCHMARK.json order. A workload that does not touch a layer reports
// it as 0. Times are medians over the traced ops of a layer's self time
// in one op; counts are per op unless the name says otherwise.
var perLayerNames = func() []layerMetric {
	ms := []layerMetric{
		{"model.compile_ms", "ms"},
		{"model.objective_us", "us"},
		{"prune.analyze_ms", "ms"},
		{"prune.tailbound_ms", "ms"},
		{"prune.added_edges", "count"},
		{"greedy.ms", "ms"},
		{"cp.nodes", "count"},
		{"cp.fails", "count"},
		{"cp.fail_ratio", "ratio"},
		{"cp.pruned_incumbent", "count"},
		{"cp.pruned_tail", "count"},
		{"cp.infeasible", "count"},
		{"cp.solve_ms", "ms"},
		{"cp.knodes_per_s", "1000/s"},
		{"local.steps", "count"},
		{"local.accepted", "count"},
		{"local.accept_ratio", "ratio"},
		{"local.ksteps_per_s", "1000/s"},
		{"local.vns_ms", "ms"},
		{"local.tabu_ms", "ms"},
		{"portfolio.routed", "count"},
		{"portfolio.fallbacks", "count"},
		{"portfolio.race_ms", "ms"},
	}
	for _, class := range routeClasses {
		for _, b := range routeProvers {
			ms = append(ms, layerMetric{"portfolio.route." + class + "." + b, "count"})
		}
	}
	for _, b := range winnerNames {
		ms = append(ms, layerMetric{"portfolio.wins." + b, "count"})
	}
	return append(ms,
		layerMetric{"codec.decode_us", "us"},
		layerMetric{"codec.canonicalize_us", "us"},
		layerMetric{"codec.hash_us", "us"},
		layerMetric{"codec.encode_us", "us"},
		layerMetric{"http.transport_ms", "ms"},
		layerMetric{"service.handler_ms", "ms"},
		layerMetric{"service.queue_wait_ms", "ms"},
		layerMetric{"service.solve_ms", "ms"},
		layerMetric{"service.overhead_ms", "ms"},
		layerMetric{"service.cache_hits", "count"},
		layerMetric{"service.cache_misses", "count"},
		layerMetric{"service.warm_starts", "count"},
		layerMetric{"service.warm_hint_hits", "count"},
		layerMetric{"service.warm_rejected", "count"},
		layerMetric{"evolve.repair_us", "us"},
		layerMetric{"evolve.project_us", "us"},
		layerMetric{"session.tail_kept_frac", "ratio"},
		layerMetric{"runtime.alloc_kb_per_op", "KB"},
		layerMetric{"runtime.gc_per_op", "count"},
		layerMetric{"advisor.tpch_build_s", "s"},
		layerMetric{"advisor.tpcds_build_s", "s"},
		layerMetric{"host.ref_ms", "ms"},
		layerMetric{"trace.overhead_ms", "ms"},
		layerMetric{"trace.sum_frac", "ratio"},
		layerMetric{"trace.unattributed_frac", "ratio"},
	)
}()

// routeClasses are the router's feature classes that the fast path can
// serve (instances of at most portfolio.DefaultFastPathMaxN indexes),
// spelled with "_" for the router's "/".
var routeClasses = []string{
	"tiny_sparse", "tiny_dense", "small_sparse", "small_dense", "medium_sparse", "medium_dense",
}

// routeProvers are the exact backends the router may pick.
var routeProvers = []string{"cp", "astar", "bruteforce"}

// winnerNames are the backends a served solve can name as its winner:
// every registered backend, "seed" for a warm start nobody improved,
// and "finisher" for the portfolio's exploitation pass ("<name>+").
var winnerNames = []string{
	"greedy", "dp", "bruteforce", "astar", "cp", "mip",
	"tabu-b", "tabu-f", "lns", "vns", "anneal", "seed", "finisher",
}
