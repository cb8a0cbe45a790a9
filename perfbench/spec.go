package main

import (
	"encoding/json"
	"io"
)

// metricDef declares one metric. Bound is set on end-to-end metrics only:
// the share of the parent's median by which the metric may get worse before
// a change counts as a regression. moves names, for a per-layer metric, the
// end-to-end metric and workload it should move.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	moves  string
}

// endToEnd are the metrics a user of the engine sees, each reported on every
// workload from the untraced window. A query is one engine call; a diagnose
// feedback cycle makes three or four. error_rate is printed beside them but
// is not in this list: it is 0 at every commit that passes, so no share of
// its median can bound it, and the JSON line's failed and attempted carry it
// exactly.
//
// The bounds follow the spreads measured between runs on a 2-CPU container:
// the wall-clock metrics move 5-17% from run to run, more while the host is
// busy (a bare CPU loop alone moves ±5% there), so they take the largest
// bound allowed; the counted and simulated metrics change only with the
// seed's data, by at most 4%.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "latency_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_query", Unit: "KB", Better: "lower", Bound: 0.1},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: "sim_ms_per_query", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "feedback_speedup_pct", Unit: "%", Better: "higher", Bound: 0.1},
}

const (
	movesOLTPp99     = "-> oltp latency_p99_us"
	movesOLTPp50     = "-> oltp latency_p50_us"
	movesDiagQPS     = "-> diagnose throughput_qps"
	movesAnalyticQPS = "-> analytic throughput_qps"
	movesScanQPS     = "-> analytic and diagnose throughput_qps"
)

// perLayer are the metrics of single layers, from the traced run. Each
// names the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{Name: "storage.hit_ratio", Unit: "ratio", Better: "higher", moves: movesOLTPp99},
	{Name: "storage.evictions_per_query", Unit: "count", Better: "lower", moves: movesOLTPp99},
	{Name: "storage.physical_reads_per_query", Unit: "count", Better: "lower", moves: movesDiagQPS + " and sim_ms_per_query"},
	{Name: "storage.pool_waits_per_query", Unit: "count", Better: "lower", moves: movesOLTPp99},
	{Name: "storage.fetch_hit_ns", Unit: "ns", Better: "lower", moves: movesOLTPp50},
	{Name: "storage.fetch_miss_ns", Unit: "ns", Better: "lower", moves: movesDiagQPS},
	{Name: "storage.read_overcount", Unit: "ratio", Better: "lower", moves: "-> no speed metric: per-query logical reads over the pool's (ROADMAP item 1)"},
	{Name: "tuple.decode_ns_per_row", Unit: "ns", Better: "lower", moves: movesScanQPS},
	{Name: "expr.eval_batch_ns_per_row", Unit: "ns", Better: "lower", moves: movesAnalyticQPS},
	{Name: "expr.eval_raw_ns_per_row", Unit: "ns", Better: "lower", moves: movesAnalyticQPS},
	{Name: "catalog.scan_ns_per_page", Unit: "ns", Better: "lower", moves: movesAnalyticQPS},
	{Name: "catalog.seek_fetch_us", Unit: "us", Better: "lower", moves: movesOLTPp50},
	{Name: "core.observe_ns_per_page.grouped", Unit: "ns", Better: "lower", moves: movesScanQPS},
	{Name: "core.observe_ns_per_page.dpsample", Unit: "ns", Better: "lower", moves: movesScanQPS},
	{Name: "core.observe_ns_per_page.linear", Unit: "ns", Better: "lower", moves: movesScanQPS},
	{Name: "core.observe_ns_per_page.bitvector", Unit: "ns", Better: "lower", moves: movesScanQPS},
	{Name: "core.monitor_overhead_pct", Unit: "%", Better: "lower", moves: movesScanQPS + " (Fig 7)"},
	{Name: "exec.run_us", Unit: "us", Better: "lower", moves: "-> analytic latency_p50_us"},
	{Name: "exec.rows_touched_per_query", Unit: "count", Better: "lower", moves: "-> analytic latency_p50_us"},
	{Name: "exec.batches_per_query", Unit: "count", Better: "lower", moves: "-> analytic latency_p50_us"},
	{Name: "exec.op_self_us.leaf", Unit: "us", Better: "lower", moves: "-> analytic and diagnose latency_p50_us"},
	{Name: "exec.op_self_us.inner", Unit: "us", Better: "lower", moves: "-> analytic and diagnose latency_p50_us"},
	{Name: "opt.optimize_us", Unit: "us", Better: "lower", moves: movesDiagQPS},
	{Name: "opt.apply_feedback_us", Unit: "us", Better: "lower", moves: movesDiagQPS},
	{Name: "plancache.hit_ratio", Unit: "ratio", Better: "higher", moves: movesOLTPp50 + " (near 1) and diagnose (low)"},
	{Name: "plancache.stale_per_query", Unit: "count", Better: "lower", moves: movesOLTPp50 + " and " + movesDiagQPS},
	{Name: "sql.parse_us", Unit: "us", Better: "lower", moves: "-> analytic and diagnose throughput_qps"},
	{Name: "sql.bind_us", Unit: "us", Better: "lower", moves: movesOLTPp50},
	{Name: "engine.fixed_us", Unit: "us", Better: "lower", moves: movesOLTPp50},
	{Name: "runtime.gc_cpu_pct", Unit: "%", Better: "lower", moves: movesAnalyticQPS},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", moves: "-> none: the traced run's cost over the untraced one"},
}

func metricByName(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

// runSeconds is the measured window the driver asks for.
const runSeconds = 25

// writeSpec prints BENCHMARK.json from the declarations above, so the file
// and the program cannot disagree on names.
func writeSpec(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, s := range workloads {
		spec.Workloads = append(spec.Workloads, wl{s.name, s.why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}
