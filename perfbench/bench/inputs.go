package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"jcr/internal/demand"
	"jcr/internal/experiments"
	"jcr/internal/faults"
	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/rng"
	"jcr/internal/strategy"
	"jcr/internal/topo"
)

// Input sizes. A control workload's run makes one untimed warm-up pass
// over its horizon, then whole timed cycles over it (see timedCycles).
const (
	// paperHours is the paper_online horizon. Each hour costs one GPR
	// forecast per video (about 0.5 s), which is most of setup_s.
	paperHours = 6
	// paperSpreads is how many Monte-Carlo request spreads (the paper's
	// sampled variable) the horizon repeats over; their forecasts are
	// shared, so each costs only the spread. One spread moved plan delay
	// by 11% (interquartile range over median) from seed to seed.
	paperSpreads = 4
	// arenaHours is the zipf_faults horizon: half a day of drift and faults.
	arenaHours = 12
	// compositeHours is the composite_decomposed horizon.
	compositeHours = 6
	// ringPlans is how many precomputed plans serve_swap cycles through.
	ringPlans = 4

	// The arena cell (the arena's quick-grid cell rebuilt from public
	// calls): Abovenet, 24 Zipf(0.8) items, 10k requests spread over the
	// edges, links at 2% of the rate, 12 slots per edge cache.
	arenaItems    = 24
	arenaAlpha    = 0.8
	arenaRate     = 10000.0
	arenaCapFrac  = 0.02
	arenaSlots    = 12
	compositeK    = 8
	compositeItem = 16

	// Typical warm replan times on the reference machine (2-vCPU Xeon VM,
	// go1.24), which turn --seconds into a number of timed cycles.
	paperRefReplan     = 55 * time.Millisecond
	arenaRefReplan     = 350 * time.Millisecond
	compositeRefReplan = 560 * time.Millisecond
	// paperMaxCycles caps paper_online's timed cycles. Its replans are
	// short enough for nine cycles in 12 s, but then the tail sits at the
	// 95th percentile of 216 replans, where swings in host speed moved it
	// by 30% between two sets of ten runs; at three cycles (the 86th
	// percentile of 72) it moved by 11%.
	paperMaxCycles = 3

	// netSeed draws every workload's network (topology, link costs), the
	// paper scenario's view trace and the strategies' rounding seed, and
	// faultSeed the zipf_faults failure schedule. They stay fixed: the
	// run's seed varies the demand realization instead (Monte-Carlo
	// request spreads, popularity drift, lookup streams). Seeding the
	// network too moved replan time, plan delay and congestion by about
	// 27% (interquartile range over median) from seed to seed, the fault
	// schedule moved the fallback fraction by more than 5x, and one
	// rounding seed of eight quadrupled composite_decomposed's
	// congestion; no regression bound could absorb that.
	netSeed   = 1
	faultSeed = 72001

	// driftSigma is the hourly log-popularity step of the drift random
	// walk each item follows.
	driftSigma = 0.05
	// faultMTBF and faultMTTR (hours) parameterize the seeded random
	// link failures of zipf_faults: about one of 31 links down at a time,
	// with clean hours, long outages and a partition in the horizon.
	faultMTBF = 48
	faultMTTR = 3

	// hourLookups is how many requests are drawn from each hour's demand,
	// and lookupPasses how many passes over them make the timed batch
	// that follows each install on the control workloads. Shorter batches
	// let GC pauses and host stalls set the lookup tail: with 4096-lookup
	// batches it moved by 32% between runs on paper_online, whose replans
	// allocate about 400 MB/s, and with 16384 by 29%.
	hourLookups  = 1 << 14
	lookupPasses = 4
	// swapStream is serve_swap's pre-drawn request stream length: 16k
	// requests of 24 bytes stay cache-resident.
	swapStream = 1 << 14
)

// lookup is one pre-drawn data-plane request.
type lookup struct {
	item int
	node graph.NodeID
	pick uint64
}

// hourInput is one hour of a control workload.
type hourInput struct {
	// decision is what the strategy optimizes; truth is the realized
	// demand the plan is scored on and the lookups are drawn from. They
	// are the same spec except on paper_online, where decision demand is
	// the GPR forecast.
	decision, truth *placement.Spec
	// run scores paper_online plans through EvaluateDecisionOnTruth.
	run     *experiments.Run
	lookups []lookup
}

// controlInput is a control workload's whole generated input.
type controlInput struct {
	hours []hourInput
	// faults is applied to each hour's specs before the replan; nil for a
	// fault-free horizon.
	faults *faults.Scenario
	// base is the data plane's node universe and servers its fail-safe
	// targets.
	base    *graph.Graph
	servers []graph.NodeID
	// strategy is the registry name and options the replans run with.
	strategy string
	opts     strategy.Options
	// assign is the cell assignment the routing probe decomposes with;
	// nil keeps the probe monolithic.
	assign []int
	// refReplan is a replan's typical wall time on the reference machine,
	// and maxCycles, when positive, caps the timed cycles (see
	// timedCycles).
	refReplan time.Duration
	maxCycles int
	// worlds splits the horizon into that many equal runs of hours, each
	// driven by a controller of its own (zero means one): paper_online's
	// Monte-Carlo spreads are independent networks, and carrying one warm
	// placement from a spread into the next doubled plan cost on some
	// seeds. A single client still drives all of them, one replan at a
	// time.
	worlds int
	// buildMS is the wall time of each hour's input construction.
	buildMS []float64
}

// worldOf returns the controller that runs hour h.
func (in *controlInput) worldOf(h int) int {
	return h / (len(in.hours) / max(in.worlds, 1))
}

// timedCycles turns a measurement time into whole cycles over the
// horizon: as many as take about that long on the reference machine, at
// least one. The timed work, and so the sample count, is then the same on
// every run and every commit, which keeps each tail statistic at the same
// percentile; with a clock-bound window a faster or slower run took a
// different number of cycles, and the tail moved between hour types (31%
// spread between runs on zipf_faults). A slower commit takes longer to
// measure instead.
func (in *controlInput) timedCycles(window time.Duration) int {
	cycle := in.refReplan * time.Duration(len(in.hours))
	n := max(1, int((window+cycle/2)/cycle))
	if in.maxCycles > 0 {
		n = min(n, in.maxCycles)
	}
	return n
}

// size scales the inputs; tests use a tiny one.
type size struct {
	hours, spreads, items, blocks, ring int
}

func fullSize(workload string) size {
	switch workload {
	case "paper_online":
		return size{hours: paperHours, spreads: paperSpreads}
	case "zipf_faults":
		return size{hours: arenaHours, items: arenaItems}
	case "composite_decomposed":
		return size{hours: compositeHours, items: compositeItem, blocks: compositeK}
	default:
		return size{items: arenaItems, ring: ringPlans}
	}
}

func tinySize(workload string) size {
	switch workload {
	case "paper_online":
		return size{hours: 1, spreads: 1}
	case "zipf_faults":
		return size{hours: 3, items: 6}
	case "composite_decomposed":
		return size{hours: 2, items: 6, blocks: 2}
	default:
		return size{items: 6, ring: 2}
	}
}

// paperOnlineInput builds the paper's setting: the Section 6 scenario with
// GPR-forecast decision demand over consecutive collection hours, repeated
// for several Monte-Carlo request spreads drawn from the seed, each spread
// with a controller of its own.
func paperOnlineInput(seed int64, sz size, now func() time.Duration) (*controlInput, error) {
	cfg := experiments.DefaultConfig()
	cfg.Seed = netSeed
	sc := experiments.NewScenario(cfg, nil)
	in := &controlInput{
		strategy:  "alternating",
		opts:      strategy.Options{Seed: netSeed, Workers: 1, BestEffort: true, WarmStart: true},
		worlds:    sz.spreads,
		refReplan: paperRefReplan,
		maxCycles: paperMaxCycles,
	}
	r := rng.Derive(seed, 71000)
	for mc := 0; mc < sz.spreads; mc++ {
		for h := 0; h < sz.hours; h++ {
			t := now()
			run, err := sc.MakeRun(experiments.RunParams{Mode: experiments.GPRPrediction, Hour: h, MCSeed: seed*1000 + int64(mc)})
			if err != nil {
				return nil, fmt.Errorf("paper_online: hour %d: %w", h, err)
			}
			in.buildMS = append(in.buildMS, ms(now()-t))
			in.hours = append(in.hours, hourInput{
				decision: run.Decision,
				truth:    run.Truth,
				run:      run,
				lookups:  drawLookups(run.Truth, hourLookups, r),
			})
		}
	}
	in.base = in.hours[0].truth.G
	in.servers = in.hours[0].truth.Pinned
	return in, nil
}

// arenaHorizon builds the arena cell's hourly specs: a fixed network and
// per-edge request split, item popularity following a seeded log-normal
// random walk (renormalized to the cell's total rate), and link
// capacities sized once, for the horizon's peak per-edge demand.
func arenaHorizon(seed int64, items, hours int) ([]*placement.Spec, *topo.Network, error) {
	net := topo.Abovenet(netSeed)
	net.AssignCosts(rng.Derive(netSeed, 9000), 100, 200, 1, 20)
	r := rng.Derive(seed, 76000)
	pop := demand.Zipf(items, arenaAlpha)
	share := demand.SpreadToEdges(pop, len(net.Edges), rng.Derive(netSeed, 9001))
	for i := range share {
		for e := range share[i] {
			share[i][e] /= pop[i]
		}
	}
	walk := make([]float64, items)
	peak := make([]float64, len(net.Edges))
	rates := make([][][]float64, hours)
	for h := 0; h < hours; h++ {
		itemRates := make([]float64, items)
		var sum float64
		for i := range itemRates {
			if h > 0 {
				walk[i] += driftSigma * r.NormFloat64()
			}
			itemRates[i] = pop[i] * math.Exp(walk[i])
			sum += itemRates[i]
		}
		rates[h] = make([][]float64, items)
		edgeTotal := make([]float64, len(net.Edges))
		for i := range itemRates {
			rates[h][i] = make([]float64, net.G.NumNodes())
			for e, v := range net.Edges {
				lam := arenaRate * itemRates[i] / sum * share[i][e]
				rates[h][i][v] = lam
				edgeTotal[e] += lam
			}
		}
		for e := range peak {
			peak[e] = math.Max(peak[e], edgeTotal[e])
		}
	}
	net.SetUniformCapacity(arenaCapFrac * arenaRate)
	if err := net.AugmentFeasibility(peak); err != nil {
		return nil, nil, err
	}
	cacheCap := make([]float64, net.G.NumNodes())
	for _, v := range net.Edges {
		cacheCap[v] = arenaSlots
	}
	specs := make([]*placement.Spec, hours)
	for h := range specs {
		specs[h] = &placement.Spec{
			G:        net.G,
			NumItems: items,
			CacheCap: cacheCap,
			Pinned:   []graph.NodeID{net.Origin},
			Rates:    rates[h],
		}
	}
	return specs, net, nil
}

// zipfFaultsInput builds the arena cell's horizon with seeded random link
// failures applied hour by hour.
func zipfFaultsInput(seed int64, sz size, now func() time.Duration) (*controlInput, error) {
	t := now()
	specs, net, err := arenaHorizon(seed, sz.items, sz.hours)
	if err != nil {
		return nil, fmt.Errorf("zipf_faults: %w", err)
	}
	sc, err := faults.RandomLinkFaults(net.G, sz.hours, faultMTBF, faultMTTR, faultSeed)
	if err != nil {
		return nil, fmt.Errorf("zipf_faults: %w", err)
	}
	in := &controlInput{
		faults:    sc,
		base:      net.G,
		servers:   []graph.NodeID{net.Origin},
		strategy:  "alternating",
		opts:      strategy.Options{Seed: netSeed, Workers: 1, BestEffort: true, WarmStart: true},
		refReplan: arenaRefReplan,
	}
	in.hours = hoursOf(specs, seed)
	perHour := ms(now()-t) / float64(sz.hours)
	for range specs {
		in.buildMS = append(in.buildMS, perHour)
	}
	return in, nil
}

// compositeInput builds the scaling sweep's K-block composite with hourly
// popularity drift that keeps every edge node's total demand fixed, so the
// capacities the sweep augmented stay feasible every hour.
func compositeInput(seed int64, sz size, now func() time.Duration) (*controlInput, error) {
	t := now()
	cfg := experiments.DefaultConfig()
	cfg.Seed = netSeed
	base, err := experiments.ScalingSpec(cfg, sz.blocks, sz.items)
	if err != nil {
		return nil, fmt.Errorf("composite_decomposed: %w", err)
	}
	r := rng.Derive(seed, 73000)
	n := base.G.NumNodes()
	walk := make([]float64, base.NumItems)
	specs := make([]*placement.Spec, sz.hours)
	for h := range specs {
		if h > 0 {
			for i := range walk {
				walk[i] += driftSigma * r.NormFloat64()
			}
		}
		rates := make([][]float64, base.NumItems)
		for i := range rates {
			rates[i] = make([]float64, n)
		}
		for v := 0; v < n; v++ {
			var total, drifted float64
			for i := range rates {
				total += base.Rates[i][v]
				drifted += base.Rates[i][v] * math.Exp(walk[i])
			}
			if total <= 0 {
				continue
			}
			for i := range rates {
				rates[i][v] = base.Rates[i][v] * math.Exp(walk[i]) * total / drifted
			}
		}
		spec := *base
		spec.Rates = rates
		specs[h] = &spec
	}
	assign, err := topo.Partition(base.G, cellCount(n))
	if err != nil {
		return nil, fmt.Errorf("composite_decomposed: %w", err)
	}
	in := &controlInput{
		base:      base.G,
		servers:   base.Pinned,
		strategy:  "decomposed",
		opts:      strategy.Options{Seed: netSeed, Workers: 2, BestEffort: true, WarmStart: true},
		assign:    assign,
		refReplan: compositeRefReplan,
	}
	in.hours = hoursOf(specs, seed)
	perHour := ms(now()-t) / float64(sz.hours)
	for range specs {
		in.buildMS = append(in.buildMS, perHour)
	}
	return in, nil
}

// cellCount mirrors the decomposed strategy's partition size (about 24
// nodes per cell, at least two cells), so the routing probe decomposes the
// way the strategy does.
func cellCount(n int) int {
	return max(2, (n+23)/24)
}

// hoursOf wraps specs whose decision and truth demand coincide.
func hoursOf(specs []*placement.Spec, seed int64) []hourInput {
	r := rng.Derive(seed, 74000)
	out := make([]hourInput, len(specs))
	for h, s := range specs {
		out[h] = hourInput{decision: s, truth: s, lookups: drawLookups(s, hourLookups, r)}
	}
	return out
}

// drawLookups samples n requests from the spec's demand, each request
// type with probability proportional to its rate, with a random route-pick
// word per request.
func drawLookups(s *placement.Spec, n int, r *rand.Rand) []lookup {
	reqs := s.Requests()
	cum := make([]float64, len(reqs))
	var total float64
	for k, rq := range reqs {
		total += s.Rates[rq.Item][rq.Node]
		cum[k] = total
	}
	out := make([]lookup, n)
	for k := range out {
		x := r.Float64() * total
		j := sort.SearchFloat64s(cum, x)
		if j >= len(reqs) {
			j = len(reqs) - 1
		}
		out[k] = lookup{item: reqs[j].Item, node: reqs[j].Node, pick: r.Uint64()}
	}
	return out
}
