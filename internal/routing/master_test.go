package routing

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"jcr/internal/core/lputil"
	"jcr/internal/demand"
	"jcr/internal/faults"
	"jcr/internal/graph"
	"jcr/internal/lp"
	"jcr/internal/placement"
	"jcr/internal/topo"
)

// masterObjTol is the relative objective agreement the path master keeps
// with the arc-flow oracle.
const masterObjTol = 1e-9

// boundaryDeficit is the least unroutable demand of the differential
// suite's infeasible instances. Below it the verdict turns on each
// solver's own phase-1 tolerance, which TestLPSkipBoundary pins instead.
const boundaryDeficit = 1e-4

// buildArcFlowLP is the arc-flow MMSFP program the path master replaced,
// kept as its test oracle: one flow variable per (item, arc), one
// conservation row per (item, node), and one shared capacity row per
// capacitated arc.
func buildArcFlowLP(aux *graph.Auxiliary, active []itemDemand) (*lp.Problem, error) {
	g := aux.G
	m := g.NumArcs()
	p := lputil.NewProblem(len(active) * m)
	fIdx := func(k, e int) int { return k*m + e }
	for k := range active {
		for e := 0; e < m; e++ {
			p.SetObjectiveCoeff(fIdx(k, e), g.Arc(e).Cost)
		}
	}
	// Conservation per item and node. Self-loop arcs appear in both Out
	// and In, which the row builder coalesces to a zero coefficient.
	row := lp.NewRowBuilder(p)
	for k, ad := range active {
		vs := aux.VirtualSource[k]
		for v := 0; v < g.NumNodes(); v++ {
			for _, e := range g.Out(v) {
				row.Add(fIdx(k, e), 1)
			}
			for _, e := range g.In(v) {
				row.Add(fIdx(k, e), -1)
			}
			supply := 0.0
			if v == vs {
				supply = ad.total
			} else if d, isSink := ad.sinks[v]; isSink {
				supply = -d
			}
			if row.Len() == 0 {
				if supply != 0 {
					return nil, fmt.Errorf("node %d has demand but no incident arcs", v)
				}
				continue
			}
			if err := row.Constrain(lp.EQ, supply); err != nil {
				return nil, err
			}
		}
	}
	for e := 0; e < m; e++ {
		c := g.Arc(e).Cap
		if math.IsInf(c, 1) {
			continue
		}
		for k := range active {
			row.Add(fIdx(k, e), 1)
		}
		if err := row.Constrain(lp.LE, c); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// leastUnrouted is the oracle's measure of infeasibility: the arc-flow
// program with one unserved variable per request at unit cost and free
// flow, whose optimum is the least total demand the capacities cannot
// carry.
func leastUnrouted(t *testing.T, aux *graph.Auxiliary, active []itemDemand) float64 {
	t.Helper()
	g := aux.G
	m := g.NumArcs()
	nFlow := len(active) * m
	var reqs int
	for _, ad := range active {
		reqs += len(ad.sorted)
	}
	p := lputil.NewProblem(nFlow + reqs)
	row := lp.NewRowBuilder(p)
	u := nFlow
	for k, ad := range active {
		vs := aux.VirtualSource[k]
		slack := map[graph.NodeID]int{}
		for _, s := range ad.sorted {
			slack[s] = u
			p.SetObjectiveCoeff(u, 1)
			u++
		}
		for v := 0; v < g.NumNodes(); v++ {
			for _, e := range g.Out(v) {
				row.Add(k*m+e, 1)
			}
			for _, e := range g.In(v) {
				row.Add(k*m+e, -1)
			}
			supply := 0.0
			if v == vs {
				supply = ad.total
				for _, s := range ad.sorted {
					row.Add(slack[s], 1) // unserved demand stays at the source
				}
			} else if d, isSink := ad.sinks[v]; isSink {
				supply = -d
				row.Add(slack[v], -1)
			}
			if row.Len() == 0 {
				continue
			}
			if err := row.Constrain(lp.EQ, supply); err != nil {
				t.Fatal(err)
			}
		}
	}
	for e := 0; e < m; e++ {
		if c := g.Arc(e).Cap; !math.IsInf(c, 1) {
			for k := range active {
				row.Add(k*m+e, 1)
			}
			if err := row.Constrain(lp.LE, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("unserved-slack oracle: %v", err)
	}
	return sol.Objective
}

// mmsfpCoverage counts the instance features the differential suite must
// reach.
type mmsfpCoverage struct {
	capacitated, uncapacitated, failed, parallel, selfLoops, zeroCost, multiReplica int
}

// mmsfpInstance draws a random MMSFP instance: a random tree of undirected
// links (so every sink is reachable from every replica) plus random extra
// arcs, parallel arcs and self-loops; capacities finite, unlimited or zero
// (a failed link); costs sometimes zero; one to four items with one to
// three replicas each and demand at about half of the nodes.
func mmsfpInstance(r *rand.Rand, cov *mmsfpCoverage) (*graph.Auxiliary, []itemDemand) {
	n := 3 + r.Intn(8)
	g := graph.New(n)
	cost := func() float64 {
		if r.Intn(4) == 0 {
			cov.zeroCost++
			return 0
		}
		return float64(1 + r.Intn(9))
	}
	capacity := func() float64 {
		switch r.Intn(8) {
		case 0:
			cov.uncapacitated++
			return graph.Unlimited
		case 1:
			cov.failed++
			return 0
		default:
			cov.capacitated++
			return 0.5 + 4*r.Float64()
		}
	}
	for v := 1; v < n; v++ {
		g.AddEdge(r.Intn(v), v, cost(), capacity())
	}
	for e := r.Intn(2 * n); e > 0; e-- {
		switch r.Intn(4) {
		case 0:
			a := g.Arc(r.Intn(g.NumArcs()))
			g.AddArc(a.From, a.To, cost(), capacity())
			cov.parallel++
		case 1:
			v := r.Intn(n)
			g.AddArc(v, v, cost(), capacity())
			cov.selfLoops++
		default:
			g.AddArc(r.Intn(n), r.Intn(n), cost(), capacity())
		}
	}
	items := 1 + r.Intn(4)
	var active []itemDemand
	var groups [][]graph.NodeID
	for k := 0; k < items; k++ {
		reps := r.Perm(n)[:1+r.Intn(3)]
		if len(reps) > 1 {
			cov.multiReplica++
		}
		sinks := map[graph.NodeID]float64{}
		var total float64
		for v := 0; v < n; v++ {
			if r.Float64() < 0.5 {
				d := 0.2 + 2*r.Float64()
				sinks[v] = d
				total += d
			}
		}
		if total == 0 {
			continue
		}
		active = append(active, itemDemand{item: k, sinks: sinks, sorted: sortedSinks(sinks), total: total})
		sort.Ints(reps) // ascending, as placement.Replicas lists them
		groups = append(groups, reps)
	}
	return graph.NewAuxiliary(g, groups), active
}

// checkFlows verifies that per-item arc flows conserve (each item leaves
// its virtual source with its total and reaches each sink with its demand)
// and that their sum respects every arc capacity.
func checkFlows(aux *graph.Auxiliary, active []itemDemand, flows [][]float64) error {
	const tol = 1e-7
	g := aux.G
	agg := make([]float64, g.NumArcs())
	for k, ad := range active {
		net := make([]float64, g.NumNodes())
		for id, f := range flows[k] {
			if f < 0 {
				return fmt.Errorf("item %d arc %d: negative flow %g", k, id, f)
			}
			a := g.Arc(id)
			net[a.From] += f
			net[a.To] -= f
			agg[id] += f
		}
		for v, x := range net {
			want := -ad.sinks[v]
			if v == aux.VirtualSource[k] {
				want = ad.total
			}
			if math.Abs(x-want) > tol*(1+ad.total) {
				return fmt.Errorf("item %d node %d: net outflow %g, want %g", k, v, x, want)
			}
		}
	}
	for id, f := range agg {
		if c := g.Arc(id).Cap; f > c+tol {
			return fmt.Errorf("arc %d carries %g over capacity %g", id, f, c)
		}
	}
	return nil
}

// The path master agrees with the arc-flow LP on 300 random instances:
// the same verdict, objectives within masterObjTol relative, and flows
// that conserve and fit the capacities.
func TestPathMasterMatchesArcFlowLP(t *testing.T) {
	r := rand.New(rand.NewSource(1708))
	var cov mmsfpCoverage
	feasible, infeasible, boundary := 0, 0, 0
	const instances = 300
	for i := 0; i < instances; i++ {
		aux, active := mmsfpInstance(r, &cov)
		if len(active) == 0 {
			continue
		}
		if u := leastUnrouted(t, aux, active); u > 1e-12 && u < boundaryDeficit {
			boundary++
			continue
		}
		p, err := buildArcFlowLP(aux, active)
		if err != nil {
			t.Fatalf("instance %d: oracle build: %v", i, err)
		}
		want, wantErr := p.Solve()
		flows, got, gotErr := newPathMaster(aux, active, nil).solve(nil)
		if errors.Is(wantErr, lp.ErrInfeasible) {
			if !errors.Is(gotErr, lp.ErrInfeasible) {
				t.Fatalf("instance %d: arc-flow LP infeasible, path master returned %v", i, gotErr)
			}
			infeasible++
			continue
		}
		if wantErr != nil {
			t.Fatalf("instance %d: oracle: %v", i, wantErr)
		}
		if gotErr != nil {
			t.Fatalf("instance %d: arc-flow optimum %v, path master returned %v", i, want.Objective, gotErr)
		}
		if math.Abs(got-want.Objective) > masterObjTol*math.Max(1, math.Abs(want.Objective)) {
			t.Fatalf("instance %d: path master cost %v, arc-flow optimum %v", i, got, want.Objective)
		}
		if err := checkFlows(aux, active, flows); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		feasible++
	}
	t.Logf("%d feasible, %d infeasible, %d skipped at the boundary; coverage %+v", feasible, infeasible, boundary, cov)
	if feasible+infeasible < 200 {
		t.Errorf("only %d instances compared, want at least 200", feasible+infeasible)
	}
	if feasible < 50 || infeasible < 50 {
		t.Errorf("%d feasible and %d infeasible instances; want at least 50 of each", feasible, infeasible)
	}
	if cov.capacitated == 0 || cov.uncapacitated == 0 || cov.failed == 0 || cov.parallel == 0 ||
		cov.selfLoops == 0 || cov.zeroCost == 0 || cov.multiReplica == 0 {
		t.Errorf("generator missed a feature: %+v", cov)
	}
}

// Route's result does not depend on the worker count on instances the
// path master routes (the independent flows before it fan out).
func TestRouteWorkersIdenticalThroughMaster(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	viaLP := 0
	for trial := 0; trial < 12; trial++ {
		s, pl := flowInstance(r, 20, 8)
		for _, fractional := range []bool{true, false} {
			one, err := Route(s, pl, Options{Fractional: fractional, Workers: 1, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			four, err := Route(s, pl, Options{Fractional: fractional, Workers: 4, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(one, four) {
				t.Fatalf("trial %d (fractional %v): 1 worker (%s) and 4 workers (%s) route differently", trial, fractional, one.Method, four.Method)
			}
			if one.Method == MethodLP {
				viaLP++
			}
		}
	}
	if viaLP == 0 {
		t.Error("no trial reached the path master")
	}
}

// zipfInstance builds a zipf_faults-shaped routing instance: Abovenet with
// Section 6 link costs, 24 Zipf(0.8) items whose 10k requests spread over
// the edge nodes, links at 2% of the rate augmented once for the demand,
// twelve items cached at every edge node, and one link down.
func zipfInstance(tb testing.TB) (*graph.Auxiliary, []itemDemand) {
	tb.Helper()
	const (
		items = 24
		rate  = 10000.0
		slots = 12
	)
	r := rand.New(rand.NewSource(9000))
	net := topo.Abovenet(1)
	net.AssignCosts(r, 100, 200, 1, 20)
	share := demand.SpreadToEdges(demand.Zipf(items, 0.8), len(net.Edges), r)
	s := &placement.Spec{
		G:        net.G,
		NumItems: items,
		CacheCap: make([]float64, net.G.NumNodes()),
		Pinned:   []graph.NodeID{net.Origin},
		Rates:    make([][]float64, items),
	}
	edgeTotal := make([]float64, len(net.Edges))
	for i := range s.Rates {
		s.Rates[i] = make([]float64, net.G.NumNodes())
		for e, v := range net.Edges {
			s.Rates[i][v] = rate * share[i][e]
			edgeTotal[e] += rate * share[i][e]
		}
	}
	net.SetUniformCapacity(0.02 * rate)
	if err := net.AugmentFeasibility(edgeTotal); err != nil {
		tb.Fatal(err)
	}
	pl := s.NewPlacement()
	for _, v := range net.Edges {
		s.CacheCap[v] = slots
		for _, i := range r.Perm(items)[:slots] {
			pl.Stores[v][i] = true
		}
	}
	sc := &faults.Scenario{Events: []faults.Event{{Kind: faults.LinkDown, Start: 0, Duration: 1, Link: 1}}}
	dec, _, _, err := sc.Apply(0, s, s)
	if err != nil {
		tb.Fatal(err)
	}
	return flowInputs(tb, dec, pl, Options{BestEffort: true})
}

// The zipf-shaped benchmark instance is capacity-bound, so Route's
// splittable solve reaches the master, and the master and the oracle agree
// on it.
func TestZipfInstanceNeedsMaster(t *testing.T) {
	aux, active := zipfInstance(t)
	_, method, _, err := splittableFlows(nil, aux, active, Options{LPMaxVars: defaultLPMaxVars})
	if err != nil {
		t.Fatal(err)
	}
	if method != MethodLP {
		t.Fatalf("splittable solve took the %s path, want the master", method)
	}
	p, err := buildArcFlowLP(aux, active)
	if err != nil {
		t.Fatal(err)
	}
	want, wantErr := p.Solve()
	_, got, gotErr := newPathMaster(aux, active, nil).solve(nil)
	if wantErr != nil || gotErr != nil {
		t.Fatalf("arc-flow LP: %v, path master: %v; want both optimal", wantErr, gotErr)
	}
	if math.Abs(got-want.Objective) > masterObjTol*math.Abs(want.Objective) {
		t.Fatalf("path master cost %v, arc-flow optimum %v", got, want.Objective)
	}
}

// BenchmarkMulticommodity times one coupled MMSFP solve on the zipf-shaped
// instance: the path master, and for reference the arc-flow LP it
// replaced.
func BenchmarkMulticommodity(b *testing.B) {
	aux, active := zipfInstance(b)
	b.Run("master", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := multicommodityLP(nil, aux, active, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("arcflow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := buildArcFlowLP(aux, active)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Solve(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
