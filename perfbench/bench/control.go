package bench

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"time"

	"jcr/internal/core"
	"jcr/internal/experiments"
	"jcr/internal/graph"
	"jcr/internal/lp"
	"jcr/internal/placement"
	"jcr/internal/routing"
	"jcr/internal/serve"
	"jcr/internal/strategy"
)

// gateError is a correctness-gate trip: the run aborts and reports no
// metrics.
type gateError struct{ msg string }

func (e *gateError) Error() string { return "correctness gate: " + e.msg }

func gatef(format string, args ...any) error {
	return &gateError{msg: fmt.Sprintf(format, args...)}
}

// injection deliberately breaks one replan, so tests can show the gate
// trips. The zero value injects nothing.
type injection int

const (
	injectNone injection = iota
	// injectOverCapacity stores every item at the first cache, past its
	// capacity, in the first plan.
	injectOverCapacity
	// injectCorruptPush pushes serve.CorruptPlan of the first compiled
	// plan instead of the plan itself.
	injectCorruptPush
)

// hourPlan is what one first-pass replan produced, kept for scoring after
// the timed loop so that scoring costs no time or allocation inside it.
type hourPlan struct {
	hour  int
	truth *placement.Spec
	plan  *strategy.Plan
}

// layerSample is what a traced replan records beyond its spans.
type layerSample struct {
	rounds     int
	lp         lp.GlobalCounters
	engine     graph.EngineStats
	linksDown  int
	placeWarm  lp.SolverStats
	routeWarm  lp.SolverStats
	method     string
	decIters   int
	decGapFrac float64
}

// controlPass is one closed-loop run over a control workload: one client,
// the next replan starting when the previous install returns, followed by
// a fixed batch of lookups.
type controlPass struct {
	in     *controlInput
	now    func() time.Duration
	tr     *recorder
	inject injection

	// st and probe hold one controller, and one probe state, per world.
	st    []strategy.Strategy
	eng   *graph.Engine
	dp    *serve.DataPlane
	probe []*core.SolveState
	epoch uint64

	answers []answer

	// Results over every replan.
	costBits   []uint64 // per replan: plan cost bits, or failedCost
	failed     int64    // Decide errors
	lookups    int64
	unresolved int64
	// Results of the warm-up pass: plans to score, Decide errors, and
	// lookups by serve.RouteKind.
	first        []hourPlan
	firstFail    int64
	firstLookups int64
	firstKinds   [3]int64
	// Results of the timed replans.
	timedCycles  int
	timedReplans int
	replanNS     []float64 // successful replans' wall times
	swapNS       []float64 // Compile+Install wall time
	batchNS      []float64 // per-batch ns per lookup
	lookupDur    time.Duration
	timedLookups int64
	kinds        [3]int64 // timed lookups by serve.RouteKind
	allocBytes   uint64
	samples      []layerSample
	applyNS      []float64
}

// failedCost marks a replan whose Decide failed in costBits.
const failedCost = math.MaxUint64

func newControlPass(in *controlInput, now func() time.Duration, tr *recorder, inject injection) (*controlPass, error) {
	var sts []strategy.Strategy
	var probes []*core.SolveState
	for w := 0; w < max(in.worlds, 1); w++ {
		st, err := strategy.New(in.strategy, in.opts)
		if err != nil {
			return nil, err
		}
		sts = append(sts, st)
		probes = append(probes, core.NewSolveState())
	}
	dp, err := serve.NewDataPlane(in.base, in.servers)
	if err != nil {
		return nil, err
	}
	return &controlPass{
		in:      in,
		now:     now,
		tr:      tr,
		inject:  inject,
		st:      sts,
		eng:     graph.NewEngine(),
		dp:      dp,
		probe:   probes,
		answers: make([]answer, hourLookups),
	}, nil
}

// warmUp makes the warm-up pass, one replan per horizon hour. Its plans
// are scored for quality and its failures counted, but it is not timed: the
// controller pays its cold start (cold LP solves, first shortest-path trees
// for each fault mask) once, so the warm-up belongs to set-up and the timed
// replans are the warm ones that follow.
func (p *controlPass) warmUp(ctx context.Context) error {
	for k := 0; k < len(p.in.hours); k++ {
		if err := p.step(ctx, k); err != nil {
			return err
		}
	}
	return nil
}

// timed continues after the warm-up, or after the previous timed slice,
// with the given number of whole cycles over the horizon. Whole cycles
// keep every hour equally represented: hours differ in cost (faulty hours
// solve slower), so a partial cycle would shift the median with the
// stopping point.
func (p *controlPass) timed(ctx context.Context, cycles int) error {
	first := len(p.in.hours) * (1 + p.timedCycles)
	a0 := heapAllocs()
	for k := first; k < first+len(p.in.hours)*cycles; k++ {
		if err := p.step(ctx, k); err != nil {
			return err
		}
	}
	p.allocBytes += heapAllocs() - a0
	p.timedCycles += cycles
	p.timedReplans = len(p.in.hours) * p.timedCycles
	return nil
}

// step is replan k: the hour's fault state, then all-pairs, Decide,
// Validate, Compile and Install, then the hour's lookup batches.
func (p *controlPass) step(ctx context.Context, k int) error {
	hours := len(p.in.hours)
	h := k % hours
	timed := k >= hours
	in := &p.in.hours[h]
	dec, tru := in.decision, in.truth
	p.tr.setReplan(k)
	w := p.in.worldOf(h)
	var sample layerSample
	if p.in.faults != nil {
		s := p.tr.begin("faults.apply", -1)
		t := p.now()
		d, tr, cond, err := p.in.faults.Apply(h, dec, tru)
		if err != nil {
			return fmt.Errorf("faults: hour %d: %w", h, err)
		}
		if timed {
			p.applyNS = append(p.applyNS, float64(p.now()-t))
		}
		p.tr.end(s)
		dec, tru = d, tr
		sample.linksDown = len(cond.LinksDown)
	}

	start := p.now()
	root := p.tr.begin("replan", -1)
	s := p.tr.begin("graph.all_pairs", root)
	e0 := p.eng.Stats()
	dist := p.eng.AllPairs(dec.G)
	sample.engine = engineDelta(e0, p.eng.Stats())
	p.tr.end(s)

	inst := strategy.Instance{Spec: dec, Dist: dist}
	var l0 lp.GlobalCounters
	if p.tr != nil {
		l0 = lp.GlobalStats()
	}
	s = p.tr.begin("strategy.decide", root)
	plan, stats, err := p.st[w].Decide(ctx, inst)
	p.tr.end(s)
	if p.tr != nil {
		sample.lp = lpDelta(l0, lp.GlobalStats())
		sample.rounds = stats.Iterations
	}
	if err != nil {
		// A legitimate failure: the last-known-good plan keeps serving.
		p.tr.end(root)
		p.failed++
		if !timed {
			p.firstFail++
			p.first = append(p.first, hourPlan{hour: h, truth: tru})
		}
		p.costBits = append(p.costBits, failedCost)
		return p.lookupBatches(in, dec, timed)
	}
	if p.inject == injectOverCapacity && k == 0 {
		overfill(dec, plan.Placement)
	}

	s = p.tr.begin("check.validate", root)
	err = strategy.Validate(inst, plan)
	p.tr.end(s)
	if err != nil {
		return gatef("replan %d (hour %d): plan fails validation: %v", k, h, err)
	}

	swapStart := p.now()
	s = p.tr.begin("serve.compile", root)
	p.epoch++
	cp, err := serve.Compile(dec, plan.Placement, plan.Paths, p.epoch, 0)
	p.tr.end(s)
	if err != nil {
		return gatef("replan %d (hour %d): validated plan does not compile: %v", k, h, err)
	}
	if p.inject == injectCorruptPush && k == 0 {
		cp = serve.CorruptPlan(cp, int64(k)+1)
	}
	s = p.tr.begin("serve.install", root)
	err = p.dp.Install(cp)
	p.tr.end(s)
	end := p.now()
	p.tr.end(root)
	if err != nil {
		return gatef("replan %d (hour %d): well-formed push rejected: %v", k, h, err)
	}
	p.costBits = append(p.costBits, math.Float64bits(plan.Cost))
	if timed {
		p.replanNS = append(p.replanNS, float64(end-start))
		p.swapNS = append(p.swapNS, float64(end-swapStart))
	} else {
		p.first = append(p.first, hourPlan{hour: h, truth: tru, plan: plan})
	}

	if p.tr != nil {
		if err := p.probes(ctx, p.probe[w], dec, plan, &sample); err != nil {
			return err
		}
		if timed {
			p.samples = append(p.samples, sample)
		}
	}
	return p.lookupBatches(in, dec, timed)
}

// probes re-runs the two subproblem layers once on the replan's outcome,
// each with its own carried state, so that their time and warm-start
// behaviour can be attributed (the strategy's internal calls are not
// visible from outside). Traced runs only; they are not part of the
// replan's wall time.
func (p *controlPass) probes(ctx context.Context, probe *core.SolveState, dec *placement.Spec, plan *strategy.Plan, sample *layerSample) error {
	w0 := probe.PerPath.Stats()
	s := p.tr.begin("placement.perpath", -1)
	_, err := placement.PlacePerPathOpts(ctx, dec, plan.Paths, placement.PerPathOptions{
		Workers: p.in.opts.Workers,
		Solver:  probe.PerPath,
	})
	p.tr.end(s)
	if err != nil {
		return fmt.Errorf("placement probe: %w", err)
	}
	sample.placeWarm = solverDelta(w0, probe.PerPath.Stats())

	opts := routing.Options{BestEffort: true, Workers: p.in.opts.Workers, Reuse: probe.Routing}
	if p.in.assign != nil {
		opts.Decompose = &routing.DecomposeOptions{Assign: p.in.assign}
	}
	r0 := probe.Routing.LPStats()
	s = p.tr.begin("routing.route", -1)
	res, err := routing.RouteContext(ctx, dec, plan.Placement, opts)
	p.tr.end(s)
	if err != nil {
		return fmt.Errorf("routing probe: %w", err)
	}
	sample.routeWarm = solverDelta(r0, probe.Routing.LPStats())
	sample.method = res.Method
	if d := res.Decomposed; d != nil {
		sample.decIters = d.Iterations
		sample.decGapFrac = ratio(d.Gap, math.Abs(d.PrimalCost))
	}
	return nil
}

// lookupBatches runs the hour's timed lookup batch against the installed
// plan and checks every answer.
func (p *controlPass) lookupBatches(in *hourInput, dec *placement.Spec, timed bool) error {
	s := p.tr.begin("serve.lookup_batch", -1)
	dt, kinds, err := lookupBatch(p.dp, in.lookups, p.answers, lookupPasses, p.dp.Plan(), p.now)
	p.tr.end(s)
	if err != nil {
		return err
	}
	if kinds[serve.RouteNone] > 0 && dec.G.Connected() {
		return gatef("%d lookups unresolved on a connected hour", kinds[serve.RouteNone])
	}
	n := int64(lookupPasses * len(in.lookups))
	p.lookups += n
	p.unresolved += kinds[serve.RouteNone]
	into := &p.firstKinds
	if timed {
		p.lookupDur += dt
		p.batchNS = append(p.batchNS, float64(dt)/float64(n))
		p.timedLookups += n
		into = &p.kinds
	} else {
		p.firstLookups += n
	}
	for i := range kinds {
		into[i] += kinds[i]
	}
	return nil
}

// lookupBatch makes passes over stream against dp, timing only the
// lookups, and checks each pass's answers between passes (plan as in
// checkAnswers). It returns the time spent looking up and the answers
// tallied by ladder rung.
func lookupBatch(dp *serve.DataPlane, stream []lookup, answers []answer, passes int, plan *serve.CompiledPlan, now func() time.Duration) (time.Duration, [3]int64, error) {
	var dt time.Duration
	var kinds [3]int64
	for pass := 0; pass < passes; pass++ {
		t := now()
		for j, q := range stream {
			answers[j] = answerOf(dp.Lookup(q.item, q.node, q.pick))
		}
		dt += now() - t
		if err := checkAnswers(stream, answers, plan, &kinds); err != nil {
			return dt, kinds, err
		}
	}
	return dt, kinds, nil
}

// answer is what the benchmark's client keeps of one lookup: the ladder
// rung and the route's endpoints. It holds no pointers, so recording it
// costs no GC write barrier inside the timed loop.
type answer struct {
	kind                 serve.RouteKind
	replica, first, last int32
}

// answerOf reads a route's rung, replica and path endpoints (-1 for a
// local hit, which has no path).
func answerOf(rt serve.Route) answer {
	a := answer{kind: rt.Kind, replica: int32(rt.Replica), first: -1, last: -1}
	if n := rt.Hops(); n > 0 {
		a.first, a.last = int32(rt.Node(0)), int32(rt.Node(n))
	}
	return a
}

// checkAnswers verifies a batch: every resolved route starts at its
// replica and ends at its requester (a local hit is served at the
// requester), and a plan-served route's replica stores the item in plan,
// the plan installed during the batch (nil when plans swap mid-batch). It
// tallies answers by ladder rung.
func checkAnswers(batch []lookup, answers []answer, plan *serve.CompiledPlan, kinds *[3]int64) error {
	for j, q := range batch {
		a := answers[j]
		kinds[a.kind]++
		if a.kind == serve.RouteNone {
			continue
		}
		if a.first < 0 {
			if int(a.replica) != q.node {
				return gatef("lookup (%d,%d) is a local hit at %d", q.item, q.node, a.replica)
			}
		} else if int(a.last) != q.node || a.first != a.replica {
			return gatef("lookup (%d,%d) routed %d->%d, want replica %d to requester", q.item, q.node, a.first, a.last, a.replica)
		}
		if plan != nil && a.kind == serve.RoutePlan && !plan.Stores(int(a.replica), q.item) {
			return gatef("lookup (%d,%d) served from %d, which stores no copy", q.item, q.node, a.replica)
		}
	}
	return nil
}

// overfill breaks a placement: the first non-pinned node whose cache
// cannot hold the whole catalog stores all of it.
func overfill(s *placement.Spec, pl *placement.Placement) {
	for v := range pl.Stores {
		if !s.IsPinned(v) && s.CacheCap[v] < float64(s.NumItems) {
			for i := range pl.Stores[v] {
				pl.Stores[v][i] = true
			}
			return
		}
	}
}

// quality scores the first-pass plans on realized demand: total routing
// cost, demand served, and demand requested, summed over hours, plus the
// mean worst-link utilization.
type quality struct {
	cost, served, total, utilSum float64
	hours                        int
}

func (q quality) delay() float64      { return ratio(q.cost, q.served) }
func (q quality) congestion() float64 { return ratio(q.utilSum, float64(q.hours)) }
func (q quality) servedFrac() float64 { return ratio(q.served, q.total) }

func scoreFirstPass(first []hourPlan, runs []hourInput) (quality, error) {
	var q quality
	for _, hp := range first {
		total := totalRate(hp.truth)
		q.total += total
		q.hours++
		if hp.plan == nil {
			continue // a failed replan serves nothing new
		}
		unserved := hp.plan.UnservedMass()
		cost, util := hp.plan.Cost, hp.plan.MaxUtilization
		if run := runs[hp.hour].run; run != nil {
			var err error
			cost, util, err = experiments.EvaluateDecisionOnTruth(run, hp.plan.Placement, hp.plan.Paths)
			if err != nil {
				return q, fmt.Errorf("scoring hour %d on truth: %w", hp.hour, err)
			}
			unserved = truthUnserved(hp.truth, hp.plan.Unserved)
		}
		q.cost += cost
		q.served += total - unserved
		q.utilSum += util
	}
	return q, nil
}

// truthUnserved is the realized demand of the requests a plan declared
// unserved, summed in request order.
func truthUnserved(truth *placement.Spec, unserved map[placement.Request]float64) float64 {
	var u float64
	for _, rq := range truth.Requests() {
		if _, ok := unserved[rq]; ok {
			u += truth.Rates[rq.Item][rq.Node]
		}
	}
	return u
}

func totalRate(s *placement.Spec) float64 {
	var t float64
	for i := range s.Rates {
		for _, lam := range s.Rates[i] {
			t += lam
		}
	}
	return t
}

func engineDelta(a, b graph.EngineStats) graph.EngineStats {
	return graph.EngineStats{
		Hits:    b.Hits - a.Hits,
		Repairs: b.Repairs - a.Repairs,
		Cold:    b.Cold - a.Cold,
		Merges:  b.Merges - a.Merges,
		Rehomes: b.Rehomes - a.Rehomes,
	}
}

func lpDelta(a, b lp.GlobalCounters) lp.GlobalCounters {
	return lp.GlobalCounters{
		Solves:       b.Solves - a.Solves,
		DualSolves:   b.DualSolves - a.DualSolves,
		PrimalPivots: b.PrimalPivots - a.PrimalPivots,
		DualPivots:   b.DualPivots - a.DualPivots,
		BoundFlips:   b.BoundFlips - a.BoundFlips,
		Refactors:    b.Refactors - a.Refactors,
		EtaUpdates:   b.EtaUpdates - a.EtaUpdates,
		EtaNNZ:       b.EtaNNZ - a.EtaNNZ,
	}
}

func solverDelta(a, b lp.SolverStats) lp.SolverStats {
	return lp.SolverStats{
		Solves:    b.Solves - a.Solves,
		WarmHits:  b.WarmHits - a.WarmHits,
		Fallbacks: b.Fallbacks - a.Fallbacks,
	}
}

// heapAllocs reads the cumulative heap allocation byte count without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
