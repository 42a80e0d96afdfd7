package bench

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// MetricDef names one reported metric and its unit.
type MetricDef struct {
	Name string
	Unit string
}

// EndToEnd lists the metrics a timed run (tracing off) reports, in the
// order BENCHMARK.json declares them.
var EndToEnd = []MetricDef{
	{"replan_p50_ms", "ms"},
	{"replan_tail_ms", "ms"},
	{"plan_delay", "cost/unit"},
	{"plan_congestion", "ratio"},
	{"served_fraction", "frac"},
	{"replan_fail_frac", "frac"},
	{"lookups_per_s", "1/s"},
	{"lookup_p50_ns", "ns"},
	{"lookup_tail_ns", "ns"},
	{"lookup_fail_frac", "frac"},
	{"fallback_frac", "frac"},
	{"swap_p50_us", "us"},
	{"alloc_mb_per_replan", "MB"},
	{"max_rss_mb", "MB"},
	{"setup_s", "s"},
}

// PerLayer lists the metrics a traced run reports. Counts are per replan
// (per swap on serve_swap) so that runs of different lengths compare.
var PerLayer = []MetricDef{
	{"strategy.decide_ms", "ms"},
	{"strategy.rounds", "count"},
	{"lp.solves", "count"},
	{"lp.dual_solves", "count"},
	{"lp.primal_pivots", "count"},
	{"lp.dual_pivots", "count"},
	{"lp.bound_flips", "count"},
	{"lp.refactors", "count"},
	{"lp.eta_nnz_avg", "count"},
	{"placement.perpath_ms", "ms"},
	{"placement.lp_warm_hit_frac", "frac"},
	{"placement.lp_fallbacks", "count"},
	{"routing.route_ms", "ms"},
	{"routing.method.independent", "frac"},
	{"routing.method.lp", "frac"},
	{"routing.method.decomposed", "frac"},
	{"routing.method.sequential", "frac"},
	{"routing.lp_warm_hit_frac", "frac"},
	{"routing.lp_fallbacks", "count"},
	{"routing.decomposed_iterations", "count"},
	{"routing.decomposed_gap_frac", "frac"},
	{"graph.all_pairs_ms", "ms"},
	{"graph.engine_hits", "count"},
	{"graph.engine_repairs", "count"},
	{"graph.engine_cold", "count"},
	{"graph.engine_reuse_frac", "frac"},
	{"check.validate_ms", "ms"},
	{"serve.compile_us", "us"},
	{"serve.install_us", "us"},
	{"serve.lookup_batch_ns", "ns"},
	{"serve.plan_served_frac", "frac"},
	{"serve.swaps", "count"},
	{"serve.rejected_pushes", "count"},
	{"serve.swap_late_us", "us"},
	{"experiments.make_run_ms", "ms"},
	{"faults.apply_ms", "ms"},
	{"faults.links_down", "count"},
	{"runtime.gc_cycles", "1/s"},
	{"runtime.gc_pause_ms", "ms/s"},
	{"runtime.cpu_per_wall", "ratio"},
	{"trace.overhead_ms", "ms"},
	{"trace.unattributed_frac", "frac"},
	{"trace.coverage_min", "frac"},
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and checks them against a definition
// list, so a run can never report a metric the benchmark does not declare
// or silently leave one out.
type metricSet map[string]float64

func (m metricSet) build(defs []MetricDef) (map[string]Metric, error) {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("bench: metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bench: metric %s is %v", d.Name, v)
		}
		out[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	if len(m) != len(defs) {
		return nil, fmt.Errorf("bench: %d metrics measured, %d declared", len(m), len(defs))
	}
	return out, nil
}

// Tail describes a tail statistic: the highest percentile that still has
// at least tailBeyond samples above it, and the sample count it came from.
type Tail struct {
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
}

// tailBeyond is how many samples must lie beyond a reported tail value.
const tailBeyond = 10

// median returns the middle value (mean of the two middle ones for an even
// count); zero for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the sample with exactly tailBeyond samples above it, and the
// percentile that sample sits at. With too few samples it falls back to
// the maximum (percentile 100), which the recorded sample count exposes.
func tail(xs []float64) (float64, Tail) {
	if len(xs) == 0 {
		return 0, Tail{}
	}
	s := sortedCopy(xs)
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], Tail{Percentile: 100, Samples: n}
	}
	k := n - 1 - tailBeyond
	return s[k], Tail{Percentile: 100 * float64(k+1) / float64(n), Samples: n}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// laplace is the add-one estimate of a failure probability, (fails+1) /
// (attempts+1): it is never zero, as the benchmark contract requires of
// every end-to-end metric, and reads 1/(n+1) when none of n attempts
// failed.
func laplace(fails, attempts int64) float64 {
	return float64(fails+1) / float64(attempts+1)
}

// ratio is num/den, zero when den is zero.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
