package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// def names one metric of the benchmark. BENCHMARK.json lists the same
// names, units, directions and bounds; TestBenchmarkJSON keeps the two
// in step.
type def struct {
	name   string
	unit   string
	higher bool    // true when a larger value is better
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	exact  bool    // a count or size the seed alone fixes: repeats exactly between runs of one commit
}

// endToEnd are the client-observed metrics, measured with tracing off.
// Every workload reports every one of them (the driver's contract), so
// each workload runs every kind of traffic; README.md says which
// workload gives which metric its long phase.
var endToEnd = []def{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "pnn_qps", unit: "req/s", higher: true, bound: 0.25},
	{name: "pnn_p50_ms", unit: "ms", bound: 0.25},
	{name: "pnn_p99_ms", unit: "ms", bound: 0.25},
	{name: "batch_pnn_qps", unit: "points/s", higher: true, bound: 0.25},
	{name: "knn_qps", unit: "req/s", higher: true, bound: 0.25},
	{name: "moves_per_s", unit: "moves/s", higher: true, bound: 0.25},
	{name: "insert_p50_ms", unit: "ms", bound: 0.25},
	{name: "rss_mb", unit: "MB", bound: 0.12},
	{name: "snapshot_bytes_per_obj", unit: "bytes", bound: 0.05, exact: true},
}

// perLayer are the metrics of the traced pass, prefixed by the module
// they measure. They carry no bound. The first five are client-observed
// but their spread over ten seeds on a 2-core shared host is beyond any
// bound the driver accepts, so they are reported here, unbounded
// (README.md, "Bounds, and metrics that were moved").
var perLayer = []def{
	{name: "pnn_open_p99_ms", unit: "ms"},
	{name: "knn_p50_us", unit: "us"},
	{name: "delete_p50_ms", unit: "ms"},
	{name: "delete_p99_ms", unit: "ms"},
	{name: "write_ops_per_s", unit: "ops/s", higher: true},
	{name: "prob.integrate_us", unit: "us"},
	{name: "prob.share", unit: "ratio"},
	{name: "prob.us_per_candidate", unit: "us"},
	{name: "prob.distance_cdf_ns", unit: "ns"},
	{name: "prob.lens_calls_per_query", unit: "count", exact: true},
	{name: "geom.lens_area_ns", unit: "ns"},
	{name: "core.traverse_us", unit: "us"},
	{name: "core.depth", unit: "count", exact: true},
	{name: "core.leaf_entries", unit: "count", exact: true},
	{name: "core.candidates", unit: "count", exact: true},
	{name: "core.index_ios", unit: "count", exact: true},
	{name: "core.derive_us_per_obj", unit: "us"},
	{name: "core.build_seed_ms", unit: "ms"},
	{name: "core.build_prune_ms", unit: "ms"},
	{name: "core.build_index_ms", unit: "ms"},
	{name: "core.avg_cr", unit: "count", exact: true},
	{name: "core.leaves", unit: "count", exact: true},
	{name: "core.pages", unit: "count", exact: true},
	{name: "core.avg_leaf_entries", unit: "count", exact: true},
	{name: "core.continuous_move_ns", unit: "ns"},
	{name: "uncertain.retrieve_us", unit: "us"},
	{name: "uncertain.object_ios", unit: "count", exact: true},
	{name: "uncertain.fetch_ns", unit: "ns"},
	{name: "rtree.height", unit: "count", exact: true},
	{name: "rtree.knn_candidates_us", unit: "us"},
	{name: "rtree.nn_browse_us_per_300", unit: "us"},
	{name: "wire.frame_roundtrip_ns", unit: "ns"},
	{name: "wire.req_bytes_per_op", unit: "bytes", exact: true},
	{name: "wire.resp_bytes_per_pnn", unit: "bytes", exact: true},
	{name: "server.pnn_overhead_us", unit: "us"},
	{name: "server.knn_overhead_us", unit: "us"},
	{name: "server.other_share_pnn", unit: "ratio"},
	{name: "server.other_share_knn", unit: "ratio"},
	{name: "server.ops_total", unit: "count", exact: true},
	{name: "server.ops_errors", unit: "count", exact: true},
	{name: "server.sub_recompute_rate", unit: "ratio", exact: true},
	{name: "server.sub_index_ios_per_move", unit: "count", exact: true},
	{name: "server.push_deltas", unit: "count", exact: true},
	{name: "server.push_flush_mean_us", unit: "us"},
	{name: "server.push_latency_us", unit: "us"},
	{name: "db.pnn_us", unit: "us"},
	{name: "db.knn_us", unit: "us"},
	{name: "db.batch_pnn_us_per_query", unit: "us"},
	{name: "db.batch_speedup", unit: "ratio", higher: true},
	{name: "db.build_objs_per_s", unit: "1/s", higher: true},
	{name: "db.insert_us", unit: "us"},
	{name: "db.delete_us", unit: "us"},
	{name: "db.dependents_per_delete", unit: "count", exact: true},
	{name: "db.rederived_per_delete", unit: "count", exact: true},
	{name: "db.skipped_per_delete", unit: "count", exact: true},
	{name: "db.repaired_per_insert", unit: "count", exact: true},
	{name: "db.slack_end", unit: "count", exact: true},
	{name: "db.compact_ms", unit: "ms"},
	{name: "db.save_snapshot_ms", unit: "ms"},
	{name: "db.open_ms", unit: "ms"},
	{name: "pager.reads_per_query", unit: "count", exact: true},
	{name: "pager.writes_per_mutation", unit: "count", exact: true},
	{name: "pager.mapped_mb", unit: "MB"},
	{name: "pager.resident_mb", unit: "MB"},
	{name: "pager.tail_mb", unit: "MB"},
	{name: "lru.leaf_hit_ratio", unit: "ratio", higher: true},
	{name: "lru.rtree_hit_ratio", unit: "ratio", higher: true},
	{name: "lru.evictions", unit: "count"},
	{name: "epoch.pin_unpin_ns", unit: "ns"},
	{name: "bench.generator_lag_ms", unit: "ms"},
	{name: "bench.trace_overhead_pct", unit: "%"},
	{name: "bench.cpu_util", unit: "ratio"},
	{name: "bench.gc_pause_ms", unit: "ms"},
}

// metric is one reported value. A timed metric is the median of its
// rounds' values, with the quartiles over the rounds beside it — the
// within-run spread that -compare reads as "unresolved" when it is
// wider than the metric's bound.
type metric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	N      int       `json:"n"`                // samples behind the value
	Q1     float64   `json:"q1"`               // quartiles over the rounds
	Q3     float64   `json:"q3"`               // (equal to Value for a single reading)
	Pct    float64   `json:"pct,omitempty"`    // percentile actually taken by a tail metric
	Exact  bool      `json:"exact,omitempty"`  // a count or size that must repeat
	Rounds []float64 `json:"rounds,omitempty"` // a timed metric's value in each round
}

// quantile returns the p-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (not necessarily sorted).
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// lats returns the durations as numbers of unit.
func lats(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// tail is the 99th percentile of xs — or, with fewer than 1000 of
// them, the highest percentile that still has ten samples beyond it;
// Pct records which.
func tail(xs []float64) metric {
	pct := 0.99
	if n := len(xs); n < 1000 && n > 0 {
		pct = math.Max(0.5, 1-10/float64(n))
	}
	m := reading(quantile(sortedCopy(xs), pct), len(xs))
	m.Pct = 100 * pct
	return m
}

// reading is a metric read once (a count, a size, a single timing).
func reading(v float64, n int) metric { return metric{Value: v, Q1: v, Q3: v, N: n} }

// of summarises repeated readings of one quantity by their median.
func of(vals []float64) metric {
	s := sortedCopy(vals)
	return metric{Value: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// result is what one workload process reports.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"` // the first oracle mismatches, for diagnosis

	defs map[string]def
}

func newResult(workload string) *result {
	r := &result{Workload: workload, Metrics: map[string]metric{}, defs: map[string]def{}}
	for _, d := range endToEnd {
		r.defs[d.name] = d
	}
	for _, d := range perLayer {
		r.defs[d.name] = d
	}
	return r
}

// set records a metric under its declared name, exactly once.
func (r *result) set(name string, m metric) {
	d, ok := r.defs[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	if _, dup := r.Metrics[name]; dup {
		panic("bench: metric " + name + " emitted twice")
	}
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		r.fail("metric %s has no value (no samples)", name)
		m.Value, m.Q1, m.Q3 = 0, 0, 0
	}
	m.Unit, m.Exact = d.unit, d.exact
	r.Metrics[name] = m
}

// fail counts one failed operation and keeps the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Notes) < 20 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}
