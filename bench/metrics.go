package bench

import "sort"

// Metric describes one reported number. Layer metrics come from the
// traced pass (-trace 1); the others are end-to-end host metrics measured
// with tracing off.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Layer  bool
}

// Metrics is the harness registry, in output order. BENCHMARK.json lists
// the same names and units (checked by the tests).
var Metrics = []Metric{
	{"client_rounds_per_s", "1/s", "higher", false},
	{"run_s_p50", "s", "lower", false},
	{"run_s_p75", "s", "lower", false},
	{"setup_s", "s", "lower", false},
	{"rss_mb", "MB", "lower", false},

	{"runtime.alloc_mb_per_run", "MB", "lower", true},
	{"runtime.mallocs_per_run", "count", "lower", true},
	{"runtime.gc_pause_ms_per_run", "ms", "lower", true},

	{"webgraph.generate_ms", "ms", "lower", true},

	{"multiclient.phase_a_ms", "ms", "lower", true},
	{"multiclient.phase_b_ms", "ms", "lower", true},
	{"multiclient.phase_a_share", "ratio", "lower", true},
	{"multiclient.phase_a_shard_speedup", "ratio", "higher", true},
	{"multiclient.rounds", "count", "higher", true},
	{"multiclient.spec_issued", "count", "lower", true},
	{"multiclient.spec_useful_ratio", "ratio", "higher", true},

	{"predict.next_calls", "count", "lower", true},
	{"predict.observe_ns_p50", "ns", "lower", true},
	{"predict.next_ns_p50", "ns", "lower", true},
	{"predict.next_ns_p99", "ns", "lower", true},
	{"predict.allocs_per_call", "count", "lower", true},
	{"predict.cands_mean", "count", "lower", true},
	{"predict.est_share", "ratio", "lower", true},

	{"core.solves", "count", "lower", true},
	{"core.solve_ns_p50", "ns", "lower", true},
	{"core.solve_ns_p99", "ns", "lower", true},
	{"core.nodes_per_solve", "count", "lower", true},
	{"core.est_share", "ratio", "lower", true},

	{"adaptive.updates", "count", "lower", true},
	{"adaptive.lambda_ns_p50", "ns", "lower", true},

	{"schedsrv.enqueues", "count", "lower", true},
	{"schedsrv.preempts", "count", "lower", true},
	{"schedsrv.promotes", "count", "lower", true},
	{"schedsrv.inflight_max", "count", "lower", true},
	{"schedsrv.queued_mean", "count", "lower", true},
	{"schedsrv.preempt_waste_frac", "ratio", "lower", true},
	{"schedsrv.submit_ns_p50", "ns", "lower", true},
	{"schedsrv.complete_ns_p50", "ns", "lower", true},
	{"schedsrv.complete_ns_p99", "ns", "lower", true},
	{"schedsrv.snapshot_ns_p50", "ns", "lower", true},
	{"schedsrv.est_share", "ratio", "lower", true},

	{"eventq.ops", "count", "lower", true},
	{"eventq.depth_max", "count", "lower", true},
	{"eventq.push_ns_p50", "ns", "lower", true},
	{"eventq.pop_ns_p50", "ns", "lower", true},

	{"cache.probes", "count", "lower", true},
	{"cache.contains_ns_p50", "ns", "lower", true},
	{"cache.insert_ns_p50", "ns", "lower", true},
	{"cache.server_inserts", "count", "lower", true},
	{"cache.server_evicts", "count", "lower", true},
	{"cache.server_hit_ratio", "ratio", "higher", true},
	{"cache.est_share", "ratio", "lower", true},

	{"obs.events", "count", "lower", true},
	{"obs.encode_ns_per_event", "ns", "lower", true},
	{"obs.bytes_per_event", "bytes", "lower", true},
	{"obs.est_share", "ratio", "lower", true},
	{"obs.trace_overhead", "ratio", "lower", true},

	{"fleet.routes", "count", "lower", true},
	{"fleet.reroutes", "count", "lower", true},
	{"fleet.lost", "count", "lower", true},
}

// metricByName returns the registry entry for name.
func metricByName(name string) (Metric, bool) {
	for _, m := range Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// quantile returns the q-quantile of sorted xs by the rule of Python's
// statistics.quantiles(method="exclusive"): position q·(n+1), linear
// interpolation, the index clamped to the interior. For n = 1 it is the
// single value; for n = 0 it is 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return 0
	case 1:
		return sorted[0]
	}
	p := q * float64(n+1)
	j := int(p)
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	return sorted[j-1] + (sorted[j]-sorted[j-1])*(p-float64(j))
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }
