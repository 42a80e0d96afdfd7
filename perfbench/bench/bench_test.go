package bench

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testHost() Host {
	start := time.Now()
	return Host{
		Now:      func() time.Duration { return time.Since(start) },
		Sleep:    time.Sleep,
		CPU:      func() time.Duration { return time.Since(start) },
		MaxRSSMB: func() float64 { return 1 },
	}
}

func tinyConfig(workload string, trace bool) Config {
	return Config{Workload: workload, Seed: 3, Seconds: 0.3, Trace: trace, Host: testHost(), tiny: true}
}

// TestSmoke runs every workload at a tiny size, timed and traced, and
// checks that each declared metric is reported with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w + "/timed"
			defs := EndToEnd
			if trace {
				name = w + "/traced"
				defs = PerLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := tinyConfig(w, trace)
				var spans strings.Builder
				cfg.TraceOut = &spans
				res, err := Run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("attempted=%d failed=%d", res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
						continue
					}
					if m.Unit != d.Unit {
						t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
					}
				}
				if len(res.Fingerprint) != 64 {
					t.Errorf("fingerprint %q", res.Fingerprint)
				}
				if trace && !strings.Contains(spans.String(), `"serve.lookup_batch"`) {
					t.Errorf("traced run wrote no lookup spans")
				}
				if !trace {
					for _, name := range []string{"setup_s", "replan_p50_ms", "lookups_per_s", "replan_fail_frac", "lookup_fail_frac", "fallback_frac"} {
						if v := res.Metrics[name].Value; v <= 0 {
							t.Errorf("%s = %v, want > 0", name, v)
						}
					}
				}
			})
		}
	}
}

// TestSameSeedSameInputs pins the input generation: one seed, one
// fingerprint; another seed, another.
func TestSameSeedSameInputs(t *testing.T) {
	fp := func(seed int64) string {
		in, err := zipfFaultsInput(seed, tinySize("zipf_faults"), testHost().Now)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprintControl(in)
	}
	if a, b := fp(4), fp(4); a != b {
		t.Errorf("seed 4 gave fingerprints %s and %s", a, b)
	}
	if a, b := fp(4), fp(5); a == b {
		t.Errorf("seeds 4 and 5 gave the same inputs")
	}
}

func wantGate(t *testing.T, err error, substr string) {
	t.Helper()
	var g *gateError
	if !errors.As(err, &g) {
		t.Fatalf("got %v, want a correctness-gate error", err)
	}
	if !strings.Contains(g.Error(), substr) {
		t.Errorf("gate error %q does not mention %q", g.Error(), substr)
	}
}

func TestGateTripsOnOverCapacityPlan(t *testing.T) {
	for _, trace := range []bool{false, true} {
		cfg := tinyConfig("zipf_faults", trace)
		cfg.inject = injectOverCapacity
		res, err := Run(context.Background(), cfg)
		if res != nil {
			t.Errorf("gate trip still returned a result")
		}
		wantGate(t, err, "fails validation")
	}
}

func TestGateTripsOnCorruptPush(t *testing.T) {
	for _, w := range []string{"paper_online", "serve_swap"} {
		cfg := tinyConfig(w, false)
		cfg.inject = injectCorruptPush
		res, err := Run(context.Background(), cfg)
		if res != nil {
			t.Errorf("%s: gate trip still returned a result", w)
		}
		wantGate(t, err, "push rejected")
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 30; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	v, tl := tail(xs)
	// 20 has exactly ten samples (21..30) beyond it.
	if v != 20 || tl.Samples != 30 || tl.Percentile < 66.6 || tl.Percentile > 66.7 {
		t.Errorf("tail = %v at %+v, want 20 at the 66.7th percentile of 30", v, tl)
	}
	if v, tl := tail(xs[:5]); v != 30 || tl.Percentile != 100 {
		t.Errorf("short tail = %v at %+v, want the maximum", v, tl)
	}
}

func TestLaplaceNeverZero(t *testing.T) {
	if got := laplace(0, 99); got != 0.01 {
		t.Errorf("laplace(0, 99) = %v, want 0.01", got)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the runs are checked against in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("BENCHMARK.json not readable: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(doc.Workloads), len(Workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, Workloads[i])
		}
	}
	check := func(kind string, names, units []string, defs []MetricDef) {
		if len(names) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", kind, len(names), len(defs))
		}
		for i, d := range defs {
			if names[i] != d.Name || units[i] != d.Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], want %s [%s]", kind, i, names[i], units[i], d.Name, d.Unit)
			}
		}
	}
	var n, u []string
	for _, m := range doc.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", n, u, EndToEnd)
	n, u = nil, nil
	for _, m := range doc.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("per_layer", n, u, PerLayer)
}
