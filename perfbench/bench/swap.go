package bench

import (
	"context"
	"fmt"
	"time"

	"jcr/internal/graph"
	"jcr/internal/par"
	"jcr/internal/placement"
	"jcr/internal/rng"
	"jcr/internal/serve"
	"jcr/internal/strategy"
)

// swapPeriod is serve_swap's push schedule: one Compile+Install every
// 100 ms, open loop, whatever the lookups are doing. The tail of a run's
// swaps sits where ten swaps lie beyond it, and a swap the host stalls for
// a few hundred microseconds doubles: at a 2 ms period the tail was the
// 99.8th percentile of 5000 swaps and moved by 80% between runs, at 50 ms
// the 96th of 240 and moved by 58%.
const swapPeriod = 100 * time.Millisecond

// swapBatch is serve_swap's timed lookup batch, about 70 ms of lookups and
// a multiple of the request stream's length. With 4 ms batches the tail
// sat at the 99.7th percentile of 3000 and read 94-267 ns over ten runs,
// depending on how many multi-millisecond host stalls a run met; with
// 35 ms batches it still moved by 23%.
const swapBatch = 64 * swapStream

// ringPlan is one precomputed plan with the spec it was decided on.
type ringPlan struct {
	spec *placement.Spec
	plan *strategy.Plan
}

// swapInput is serve_swap's generated input: a ring of plans decided in
// set-up over drifting hours of the (fault-free) arena cell, and a
// request stream drawn from those hours' demand.
type swapInput struct {
	ring   []ringPlan
	failed int64 // Decide errors while precomputing the ring
	// failedDemand is the demand of the hours whose plan failed; it
	// counts as requested and not served.
	failedDemand float64
	stream       []lookup
	base         *graph.Graph
	servers      []graph.NodeID
	buildMS      []float64
}

func serveSwapInput(ctx context.Context, seed int64, sz size, now func() time.Duration) (*swapInput, error) {
	t := now()
	specs, net, err := arenaHorizon(seed, sz.items, sz.ring)
	if err != nil {
		return nil, fmt.Errorf("serve_swap: %w", err)
	}
	st, err := strategy.New("alternating", strategy.Options{Seed: netSeed, Workers: 1, BestEffort: true, WarmStart: true})
	if err != nil {
		return nil, err
	}
	in := &swapInput{base: net.G, servers: []graph.NodeID{net.Origin}}
	eng := graph.NewEngine()
	for _, s := range specs {
		plan, _, err := st.Decide(ctx, strategy.Instance{Spec: s, Dist: eng.AllPairs(s.G)})
		if err != nil {
			in.failed++
			in.failedDemand += totalRate(s)
			continue
		}
		in.ring = append(in.ring, ringPlan{spec: s, plan: plan})
	}
	if len(in.ring) == 0 {
		return nil, fmt.Errorf("serve_swap: no plan could be precomputed")
	}
	r := rng.Derive(seed, 75000)
	per := swapStream / len(specs)
	for h, s := range specs {
		n := per
		if h == len(specs)-1 {
			n = swapStream - len(in.stream)
		}
		in.stream = append(in.stream, drawLookups(s, n, r)...)
	}
	// Interleave the hours so that every batch mixes them.
	r.Shuffle(len(in.stream), func(a, b int) { in.stream[a], in.stream[b] = in.stream[b], in.stream[a] })
	perHour := ms(now()-t) / float64(len(specs))
	for range specs {
		in.buildMS = append(in.buildMS, perHour)
	}
	return in, nil
}

// swapPass is one serve_swap run: a closed-loop lookup client and an
// open-loop pusher running side by side on two goroutines.
type swapPass struct {
	in     *swapInput
	now    func() time.Duration
	sleep  func(time.Duration)
	inject injection
	dp     *serve.DataPlane

	// Lookup side (goroutine 0).
	lookTr    *recorder
	batchNS   []float64
	lookupDur time.Duration
	lookups   int64
	kinds     [3]int64
	// firstLookups and firstKinds count the first countedLookups only.
	firstLookups int64
	firstKinds   [3]int64

	// Swap side (goroutine 1).
	swapTr     *recorder
	swapNS     []float64 // Compile+Install service time per swap
	lateNS     []float64 // start minus due time per swap
	swaps      int64
	allocBytes uint64
}

// countedLookups is how many lookups of a serve_swap run the failure and
// fallback fractions are taken over, so that they do not depend on how
// fast the run went.
const countedLookups = 1 << 20

func newSwapPass(in *swapInput, host Host, traced bool, inject injection) (*swapPass, error) {
	dp, err := serve.NewDataPlane(in.base, in.servers)
	if err != nil {
		return nil, err
	}
	p := &swapPass{in: in, now: host.Now, sleep: host.Sleep, inject: inject, dp: dp}
	if traced {
		p.lookTr = newRecorder(host.Now)
		p.swapTr = newRecorder(host.Now)
	}
	// The first plan is installed before the clock starts, so lookups
	// never see an empty data plane.
	rp := in.ring[0]
	cp, err := serve.Compile(rp.spec, rp.plan.Placement, rp.plan.Paths, 1, 0)
	if err != nil {
		return nil, gatef("ring plan 0 does not compile: %v", err)
	}
	if err := dp.Install(cp); err != nil {
		return nil, gatef("well-formed push rejected: %v", err)
	}
	return p, nil
}

// run drives both sides until the clock passes deadline. A pass may run
// several times; its counts and samples accumulate.
func (p *swapPass) run(ctx context.Context, deadline time.Duration) error {
	a0 := heapAllocs()
	err := par.Do(ctx, 2, 2, func(i int) error {
		if i == 0 {
			return p.lookupLoop(deadline)
		}
		return p.swapLoop(deadline)
	})
	p.allocBytes += heapAllocs() - a0
	return err
}

// lookupLoop is the closed-loop client: timed batches of swapBatch
// lookups, passes over the request stream. Plans swap under a batch, so
// replica membership is not checked against one plan here; Compile and
// SelfCheck vouch for every installed plan.
func (p *swapPass) lookupLoop(deadline time.Duration) error {
	answers := make([]answer, len(p.in.stream))
	passes := swapBatch / len(p.in.stream)
	for p.now() < deadline {
		s := p.lookTr.begin("serve.lookup_batch", -1)
		dt, kinds, err := lookupBatch(p.dp, p.in.stream, answers, passes, nil, p.now)
		p.lookTr.end(s)
		if err != nil {
			return err
		}
		if kinds[serve.RouteNone] > 0 {
			return gatef("%d lookups unresolved on a connected network", kinds[serve.RouteNone])
		}
		n := int64(passes * len(p.in.stream))
		p.lookupDur += dt
		p.batchNS = append(p.batchNS, float64(dt)/float64(n))
		p.lookups += n
		for i := range kinds {
			p.kinds[i] += kinds[i]
		}
		if p.firstLookups < countedLookups {
			p.firstLookups += n
			for i := range kinds {
				p.firstKinds[i] += kinds[i]
			}
		}
	}
	return nil
}

func (p *swapPass) swapLoop(deadline time.Duration) error {
	t0 := p.now()
	for n := 0; ; n++ {
		due := t0 + time.Duration(n)*swapPeriod
		if due >= deadline {
			return nil
		}
		// k numbers the pass's swaps across runs, so epochs keep rising.
		k := int(p.swaps) + 1
		if d := due - p.now(); d > 0 {
			p.sleep(d)
		}
		p.swapTr.setReplan(k)
		rp := p.in.ring[k%len(p.in.ring)]
		start := p.now()
		root := p.swapTr.begin("swap", -1)
		s := p.swapTr.begin("serve.compile", root)
		cp, err := serve.Compile(rp.spec, rp.plan.Placement, rp.plan.Paths, uint64(k)+1, 0)
		p.swapTr.end(s)
		if err != nil {
			return gatef("swap %d: ring plan does not compile: %v", k, err)
		}
		if p.inject == injectCorruptPush && k == 1 {
			cp = serve.CorruptPlan(cp, int64(k))
		}
		s = p.swapTr.begin("serve.install", root)
		err = p.dp.Install(cp)
		p.swapTr.end(s)
		end := p.now()
		p.swapTr.end(root)
		if err != nil {
			return gatef("swap %d: well-formed push rejected: %v", k, err)
		}
		p.swaps++
		p.lateNS = append(p.lateNS, float64(start-due))
		p.swapNS = append(p.swapNS, float64(end-start))
	}
}

// ringQuality scores the ring's plans on the demand they were decided for
// (serve_swap's realized demand).
func ringQuality(in *swapInput) quality {
	var q quality
	for _, rp := range in.ring {
		total := totalRate(rp.spec)
		q.total += total
		q.served += total - rp.plan.UnservedMass()
		q.cost += rp.plan.Cost
		q.utilSum += rp.plan.MaxUtilization
		q.hours++
	}
	q.total += in.failedDemand
	return q
}
