// Package bench is the repository's benchmark of the replan-and-serve loop.
// Each workload generates its inputs from a seed with the public input
// builders (topo, demand, experiments, faults) and then drives the layers
// from outside, one public call at a time: graph.Engine.AllPairs,
// strategy.Decide, strategy.Validate, serve.Compile,
// (*serve.DataPlane).Install and Lookup. A run either reports every
// declared metric or, when a correctness check fails, none.
//
// The package never reads the clock: the caller injects it (Host), as
// the wall-clock lint requires of library code.
package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"time"

	"jcr/internal/serve"
)

// Workloads lists the benchmark's workloads by name.
var Workloads = []string{"paper_online", "zipf_faults", "composite_decomposed", "serve_swap"}

// setupReps is how many times a timed run builds its inputs; setup_s is
// the median.
const setupReps = 3

// Host is what the caller injects from the operating system: the library
// reads neither the clock nor process accounting itself.
type Host struct {
	// Now is a monotonic clock reading.
	Now func() time.Duration
	// Sleep blocks for about d.
	Sleep func(d time.Duration)
	// CPU is the process's CPU time (user plus system) so far.
	CPU func() time.Duration
	// MaxRSSMB is the process's peak resident set size in MB.
	MaxRSSMB func() float64
}

// Config selects one run.
type Config struct {
	Workload string
	Seed     int64
	// Seconds is how long the run measures: serve_swap's timed window, and
	// on the control workloads the number of whole timed cycles that take
	// about that long on the reference machine.
	Seconds float64
	// Trace selects the traced run (per-layer metrics) over the timed run
	// (end-to-end metrics).
	Trace bool
	// TraceOut, when non-nil, receives the traced run's spans.
	TraceOut io.Writer
	Host     Host

	tiny   bool      // tests: tiny inputs
	inject injection // tests: break the first replan
}

// Result is one run's outcome; a run that fails a correctness check
// returns an error instead.
type Result struct {
	Attempted int64
	Failed    int64
	Metrics   map[string]Metric
	// Fingerprint hashes the generated inputs (specs, fault events and
	// request streams), so two commits can be shown to have run the same
	// inputs.
	Fingerprint string
	// ReplanTail and LookupTail describe the tail statistics reported.
	ReplanTail Tail
	LookupTail Tail
}

// Run executes one workload run. A correctness-gate trip returns an error
// and no metrics.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("bench: seconds must be positive, got %v", cfg.Seconds)
	}
	sz := fullSize(cfg.Workload)
	if cfg.tiny {
		sz = tinySize(cfg.Workload)
	}
	switch cfg.Workload {
	case "paper_online", "zipf_faults", "composite_decomposed":
		return runControl(ctx, cfg, sz)
	case "serve_swap":
		return runSwap(ctx, cfg, sz)
	default:
		return nil, fmt.Errorf("bench: unknown workload %q (have %v)", cfg.Workload, Workloads)
	}
}

// setup runs a workload's set-up and, in a timed run, its measurement. A
// traced run sets up once and measures afterwards itself. A timed run sets
// up setupReps times, reports the median as setup_s, and measures in
// setupReps slices, one after each set-up, all on the first set-up's
// result (the others are discarded). The timed samples then spread over
// the whole run instead of bunching at its end: the reference machine's
// speed swings by up to 75% in phases lasting tens of seconds, and a
// phase then weighs on a run's medians by the share of the run it covers
// rather than all or nothing.
func setup[T any](cfg Config, build func() (T, error), slice func(first T, i, n int) error) (T, float64, error) {
	reps := setupReps
	if cfg.Trace {
		reps = 1
	}
	var first T
	var secs []float64
	for i := 0; i < reps; i++ {
		t := cfg.Host.Now()
		out, err := build()
		if err != nil {
			return first, 0, err
		}
		secs = append(secs, (cfg.Host.Now() - t).Seconds())
		if i == 0 {
			first = out
		}
		if cfg.Trace {
			continue
		}
		// Collect the set-up's garbage, so that every slice starts from
		// the same heap and none pays for a discarded set-up.
		runtime.GC()
		if err := slice(first, i, reps); err != nil {
			return first, 0, err
		}
	}
	return first, median(secs), nil
}

// share is slice i's part of total when it is split into n slices as
// evenly as whole units allow.
func share(total, i, n int) int {
	return total*(i+1)/n - total*i/n
}

func buildControl(cfg Config, sz size) (*controlInput, error) {
	switch cfg.Workload {
	case "paper_online":
		return paperOnlineInput(cfg.Seed, sz, cfg.Host.Now)
	case "zipf_faults":
		return zipfFaultsInput(cfg.Seed, sz, cfg.Host.Now)
	default:
		return compositeInput(cfg.Seed, sz, cfg.Host.Now)
	}
}

// warmControl is a control workload's set-up: generate the inputs, then
// make the warm-up pass on a fresh controller.
func warmControl(ctx context.Context, cfg Config, sz size, tr *recorder) (*controlPass, error) {
	in, err := buildControl(cfg, sz)
	if err != nil {
		return nil, err
	}
	p, err := newControlPass(in, cfg.Host.Now, tr, cfg.inject)
	if err != nil {
		return nil, err
	}
	if err := p.warmUp(ctx); err != nil {
		return nil, err
	}
	return p, nil
}

func runControl(ctx context.Context, cfg Config, sz size) (*Result, error) {
	host := cfg.Host
	p, setupS, err := setup(cfg, func() (*controlPass, error) { return warmControl(ctx, cfg, sz, nil) },
		func(p *controlPass, i, n int) error {
			c := share(p.in.timedCycles(seconds(cfg.Seconds)), i, n)
			if c == 0 {
				return nil
			}
			return p.timed(ctx, c)
		})
	if err != nil {
		return nil, err
	}
	in := p.in
	res := &Result{Fingerprint: fingerprintControl(in)}
	hours := len(in.hours)
	if !cfg.Trace {
		q, err := scoreFirstPass(p.first, in.hours)
		if err != nil {
			return nil, err
		}
		res.Metrics, res.ReplanTail, res.LookupTail, err = endToEnd(timedRun{
			replanNS:     p.replanNS,
			swapNS:       p.swapNS,
			batchNS:      p.batchNS,
			lookupDur:    p.lookupDur,
			lookups:      p.timedLookups,
			countedKinds: p.firstKinds,
			counted:      p.firstLookups,
			replans:      int64(hours),
			replanFails:  p.firstFail,
			allocBytes:   p.allocBytes,
			allocUnits:   int64(p.timedReplans),
		}, q, setupS, host.MaxRSSMB())
		if err != nil {
			return nil, err
		}
		res.Attempted = int64(len(p.costBits)) + p.lookups
		res.Failed = p.failed + p.unresolved
		return res, nil
	}

	// Traced run: the untraced controller from set-up runs half the timed
	// cycles as the reference; then a fresh, traced controller replays
	// exactly the same replans, warm-up included. Their plans must agree
	// bit for bit; the difference in their median replan time is the
	// tracing overhead. Per-layer figures cover the timed replans only,
	// like the end-to-end ones.
	rt0 := runtimeNow(host)
	cycles := max(1, in.timedCycles(seconds(cfg.Seconds))/2)
	if err := p.timed(ctx, cycles); err != nil {
		return nil, err
	}
	rtm := runtimeSince(host, rt0)
	tr := newRecorder(host.Now)
	traced, err := newControlPass(in, host.Now, tr, cfg.inject)
	if err != nil {
		return nil, err
	}
	if err := traced.warmUp(ctx); err != nil {
		return nil, err
	}
	if err := traced.timed(ctx, cycles); err != nil {
		return nil, err
	}
	for k := range p.costBits {
		if p.costBits[k] != traced.costBits[k] {
			return nil, gatef("replan %d: traced plan cost %x differs from untraced %x", k, traced.costBits[k], p.costBits[k])
		}
	}
	m := layerMetrics(timedSpans(tr.spans, hours), traced.samples)
	m["experiments.make_run_ms"] = mean(in.buildMS)
	m["faults.apply_ms"] = median(traced.applyNS) / 1e6
	m["serve.lookup_batch_ns"] = median(traced.batchNS)
	m["serve.plan_served_frac"] = ratio(float64(traced.kinds[serve.RoutePlan]), float64(traced.timedLookups))
	m["serve.swaps"] = float64(len(traced.replanNS))
	m["serve.rejected_pushes"] = float64(traced.dp.Snapshot(0).RejectedPushes)
	m["serve.swap_late_us"] = 0 // closed loop: every push starts when due
	m["trace.overhead_ms"] = (median(traced.replanNS) - median(p.replanNS)) / 1e6
	rtm.put(m)
	res.Metrics, err = m.build(PerLayer)
	if err != nil {
		return nil, err
	}
	if cfg.TraceOut != nil {
		if err := writeSpans(cfg.TraceOut, cfg.Workload, cfg.Seed, tr.spans); err != nil {
			return nil, fmt.Errorf("bench: writing spans: %w", err)
		}
	}
	res.Attempted = int64(len(traced.costBits)) + traced.lookups
	res.Failed = traced.failed + traced.unresolved
	return res, nil
}

func runSwap(ctx context.Context, cfg Config, sz size) (*Result, error) {
	host := cfg.Host
	var p *swapPass
	in, setupS, err := setup(cfg, func() (*swapInput, error) { return serveSwapInput(ctx, cfg.Seed, sz, host.Now) },
		func(in *swapInput, i, n int) error {
			if p == nil {
				var err error
				if p, err = newSwapPass(in, host, false, cfg.inject); err != nil {
					return err
				}
			}
			return p.run(ctx, host.Now()+seconds(cfg.Seconds/float64(n)))
		})
	if err != nil {
		return nil, err
	}
	res := &Result{Fingerprint: fingerprintSwap(in)}
	q := ringQuality(in)
	if !cfg.Trace {
		// A serve_swap "replan" is one swap of a precomputed plan.
		res.Metrics, res.ReplanTail, res.LookupTail, err = endToEnd(timedRun{
			replanNS:     p.swapNS,
			swapNS:       p.swapNS,
			batchNS:      p.batchNS,
			lookupDur:    p.lookupDur,
			lookups:      p.lookups,
			countedKinds: p.firstKinds,
			counted:      p.firstLookups,
			replans:      int64(len(in.ring)) + in.failed,
			replanFails:  in.failed,
			allocBytes:   p.allocBytes,
			allocUnits:   p.swaps,
		}, q, setupS, host.MaxRSSMB())
		if err != nil {
			return nil, err
		}
		res.Attempted = p.swaps + p.lookups
		res.Failed = p.kinds[0]
		return res, nil
	}

	ref, err := newSwapPass(in, host, false, cfg.inject)
	if err != nil {
		return nil, err
	}
	rt0 := runtimeNow(host)
	if err := ref.run(ctx, host.Now()+seconds(cfg.Seconds/2)); err != nil {
		return nil, err
	}
	rtm := runtimeSince(host, rt0)
	p, err = newSwapPass(in, host, true, cfg.inject)
	if err != nil {
		return nil, err
	}
	if err := p.run(ctx, host.Now()+seconds(cfg.Seconds/2)); err != nil {
		return nil, err
	}
	spans := mergeSpans(p.lookTr.spans, p.swapTr.spans)
	m := layerMetrics(spans, nil)
	m["experiments.make_run_ms"] = mean(in.buildMS)
	m["faults.apply_ms"] = 0
	m["serve.lookup_batch_ns"] = median(p.batchNS)
	m["serve.plan_served_frac"] = ratio(float64(p.kinds[serve.RoutePlan]), float64(p.lookups))
	m["serve.swaps"] = float64(p.swaps)
	m["serve.rejected_pushes"] = float64(p.dp.Snapshot(0).RejectedPushes)
	m["serve.swap_late_us"] = median(p.lateNS) / 1e3
	m["trace.overhead_ms"] = (median(p.swapNS) - median(ref.swapNS)) / 1e6
	rtm.put(m)
	res.Metrics, err = m.build(PerLayer)
	if err != nil {
		return nil, err
	}
	if cfg.TraceOut != nil {
		if err := writeSpans(cfg.TraceOut, cfg.Workload, cfg.Seed, spans); err != nil {
			return nil, fmt.Errorf("bench: writing spans: %w", err)
		}
	}
	res.Attempted = p.swaps + p.lookups
	res.Failed = p.kinds[0]
	return res, nil
}

// timedRun is what a timed run measured, in the shape the end-to-end
// metrics need.
type timedRun struct {
	replanNS, swapNS, batchNS []float64
	lookupDur                 time.Duration
	lookups                   int64 // timed lookups
	// countedKinds tallies by ladder rung the counted lookups the failure
	// and fallback fractions are taken over.
	countedKinds [3]int64
	counted      int64
	// replanFails of replans failed; they give replan_fail_frac.
	replans, replanFails int64
	// allocBytes were allocated over allocUnits timed replans (swaps).
	allocBytes uint64
	allocUnits int64
}

func endToEnd(t timedRun, q quality, setupS, rssMB float64) (map[string]Metric, Tail, Tail, error) {
	replanTail, rt := tail(t.replanNS)
	lookupTail, lt := tail(t.batchNS)
	m := metricSet{
		"replan_p50_ms":       median(t.replanNS) / 1e6,
		"replan_tail_ms":      replanTail / 1e6,
		"plan_delay":          q.delay(),
		"plan_congestion":     q.congestion(),
		"served_fraction":     q.servedFrac(),
		"replan_fail_frac":    laplace(t.replanFails, t.replans),
		"lookups_per_s":       ratio(float64(t.lookups), t.lookupDur.Seconds()),
		"lookup_p50_ns":       median(t.batchNS),
		"lookup_tail_ns":      lookupTail,
		"lookup_fail_frac":    laplace(t.countedKinds[serve.RouteNone], t.counted),
		"fallback_frac":       laplace(t.countedKinds[serve.RouteFailsafe], t.counted),
		"swap_p50_us":         median(t.swapNS) / 1e3,
		"alloc_mb_per_replan": float64(t.allocBytes) / 1e6 / float64(max(t.allocUnits, 1)),
		"max_rss_mb":          rssMB,
		"setup_s":             setupS,
	}
	out, err := m.build(EndToEnd)
	return out, rt, lt, err
}

// layerMetrics derives the span- and sample-based per-layer metrics.
// Layer times are medians over replans of the time the benchmark's call
// into that layer took; counts are means per replan.
func layerMetrics(spans []Span, samples []layerSample) metricSet {
	m := metricSet{}
	m["strategy.decide_ms"] = median(durations(spans, "strategy.decide")) / 1e6
	m["placement.perpath_ms"] = median(durations(spans, "placement.perpath")) / 1e6
	m["routing.route_ms"] = median(durations(spans, "routing.route")) / 1e6
	m["graph.all_pairs_ms"] = median(durations(spans, "graph.all_pairs")) / 1e6
	m["check.validate_ms"] = median(durations(spans, "check.validate")) / 1e6
	m["serve.compile_us"] = median(durations(spans, "serve.compile")) / 1e3
	m["serve.install_us"] = median(durations(spans, "serve.install")) / 1e3
	root := "replan"
	if len(samples) == 0 {
		root = "swap"
	}
	covMin, unattributed := coverage(spans, root)
	m["trace.coverage_min"] = covMin
	m["trace.unattributed_frac"] = unattributed

	n := float64(max(len(samples), 1))
	var rounds, linksDown float64
	var l struct{ solves, dual, pp, dp, flips, refac, etaU, etaN float64 }
	var hits, repairs, cold float64
	var pw, ps, pf, rw, rs, rf float64
	methods := map[string]float64{}
	var decIters, decGap, decN float64
	for _, s := range samples {
		rounds += float64(s.rounds)
		linksDown += float64(s.linksDown)
		l.solves += float64(s.lp.Solves)
		l.dual += float64(s.lp.DualSolves)
		l.pp += float64(s.lp.PrimalPivots)
		l.dp += float64(s.lp.DualPivots)
		l.flips += float64(s.lp.BoundFlips)
		l.refac += float64(s.lp.Refactors)
		l.etaU += float64(s.lp.EtaUpdates)
		l.etaN += float64(s.lp.EtaNNZ)
		hits += float64(s.engine.Hits)
		repairs += float64(s.engine.Repairs)
		cold += float64(s.engine.Cold)
		pw += float64(s.placeWarm.WarmHits)
		ps += float64(s.placeWarm.Solves)
		pf += float64(s.placeWarm.Fallbacks)
		rw += float64(s.routeWarm.WarmHits)
		rs += float64(s.routeWarm.Solves)
		rf += float64(s.routeWarm.Fallbacks)
		methods[s.method]++
		if s.method == "decomposed" {
			decIters += float64(s.decIters)
			decGap += s.decGapFrac
			decN++
		}
	}
	m["strategy.rounds"] = rounds / n
	m["lp.solves"] = l.solves / n
	m["lp.dual_solves"] = l.dual / n
	m["lp.primal_pivots"] = l.pp / n
	m["lp.dual_pivots"] = l.dp / n
	m["lp.bound_flips"] = l.flips / n
	m["lp.refactors"] = l.refac / n
	m["lp.eta_nnz_avg"] = ratio(l.etaN, l.etaU)
	m["placement.lp_warm_hit_frac"] = ratio(pw, ps)
	m["placement.lp_fallbacks"] = pf / n
	for _, meth := range []string{"independent", "lp", "decomposed", "sequential"} {
		m["routing.method."+meth] = methods[meth] / n
	}
	m["routing.lp_warm_hit_frac"] = ratio(rw, rs)
	m["routing.lp_fallbacks"] = rf / n
	m["routing.decomposed_iterations"] = ratio(decIters, decN)
	m["routing.decomposed_gap_frac"] = ratio(decGap, decN)
	m["graph.engine_hits"] = hits / n
	m["graph.engine_repairs"] = repairs / n
	m["graph.engine_cold"] = cold / n
	m["graph.engine_reuse_frac"] = ratio(hits+repairs, hits+repairs+cold)
	m["faults.links_down"] = linksDown / n
	return m
}

// timedSpans drops the warm-up pass's spans (replans below warm and the
// set-up), re-basing parents; a dropped span is never the parent of a
// kept one, since spans nest only within one replan.
func timedSpans(spans []Span, warm int) []Span {
	var out []Span
	idx := make([]int, len(spans))
	for i, s := range spans {
		idx[i] = -1
		if s.Replan < warm {
			continue
		}
		if s.Parent >= 0 {
			s.Parent = idx[s.Parent]
		}
		idx[i] = len(out)
		out = append(out, s)
	}
	return out
}

// mergeSpans concatenates two recorders' spans, re-basing b's parents.
func mergeSpans(a, b []Span) []Span {
	out := append(append([]Span(nil), a...), b...)
	for i := len(a); i < len(out); i++ {
		if out[i].Parent >= 0 {
			out[i].Parent += len(a)
		}
	}
	return out
}

// runtimeMark is a snapshot of the Go runtime's counters.
type runtimeMark struct {
	wall, cpu time.Duration
	gc        uint32
	pauseNS   uint64
}

func runtimeNow(host Host) runtimeMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeMark{wall: host.Now(), cpu: host.CPU(), gc: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

// runtimeRates is the runtime's activity over an interval, per second of
// wall time.
type runtimeRates struct {
	gcPerS, pauseMSPerS, cpuPerWall float64
}

func runtimeSince(host Host, a runtimeMark) runtimeRates {
	b := runtimeNow(host)
	wall := (b.wall - a.wall).Seconds()
	return runtimeRates{
		gcPerS:      ratio(float64(b.gc-a.gc), wall),
		pauseMSPerS: ratio(float64(b.pauseNS-a.pauseNS)/1e6, wall),
		cpuPerWall:  ratio((b.cpu - a.cpu).Seconds(), wall),
	}
}

func (r runtimeRates) put(m metricSet) {
	m["runtime.gc_cycles"] = r.gcPerS
	m["runtime.gc_pause_ms"] = r.pauseMSPerS
	m["runtime.cpu_per_wall"] = r.cpuPerWall
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// hashHex finishes a fingerprint.
func hashHex(write func(io.Writer)) string {
	h := sha256.New()
	write(h)
	return hex.EncodeToString(h.Sum(nil))
}

// HeldOutSeed is a seed kept out of tuning: a later claim of a gain must
// also hold on it.
const HeldOutSeed int64 = 7919
