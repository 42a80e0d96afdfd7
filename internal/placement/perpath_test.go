package placement

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"jcr/internal/core/lputil"
	"jcr/internal/graph"
	"jcr/internal/lp"
)

// perPathInstance builds a randomized Section 4.3.1 instance: a connected
// random graph (about one link in seven costs nothing), a pinned origin
// plus sometimes a second pinned node that paths may cross, caches of 0–2
// slots, and serving paths from the origin to every request — up to k
// shortest paths per request at random fractional rates, with one path
// sometimes listed twice, so identical downstream sets repeat within and
// across requests. The tests and BenchmarkPlacePerPathLP share it.
func perPathInstance(rng *rand.Rand, nNodes, nItems, k int) (*Spec, []ServingPath) {
	g := graph.New(nNodes)
	cost := func() float64 {
		if rng.Float64() < 0.15 {
			return 0
		}
		return float64(1 + rng.Intn(9))
	}
	for v := 0; v+1 < nNodes; v++ {
		g.AddEdge(v, v+1, cost(), graph.Unlimited)
	}
	for e := 0; e < nNodes; e++ {
		if u, v := rng.Intn(nNodes), rng.Intn(nNodes); u != v {
			g.AddEdge(u, v, cost(), graph.Unlimited)
		}
	}
	origin := nNodes - 1
	s := &Spec{
		G:        g,
		NumItems: nItems,
		CacheCap: make([]float64, nNodes),
		Pinned:   []graph.NodeID{origin},
		Rates:    make([][]float64, nItems),
	}
	if rng.Float64() < 0.5 {
		s.Pinned = append(s.Pinned, rng.Intn(origin))
	}
	for v := 0; v < nNodes; v++ {
		if !s.IsPinned(v) {
			s.CacheCap[v] = float64(rng.Intn(3))
		}
	}
	for i := range s.Rates {
		s.Rates[i] = make([]float64, nNodes)
		for v := 0; v < origin; v++ {
			if rng.Float64() < 0.5 {
				s.Rates[i][v] = 1 + 9*rng.Float64()
			}
		}
	}
	var paths []ServingPath
	for _, rq := range s.Requests() {
		cands := graph.KShortestPaths(g, origin, rq.Node, k)
		if rng.Float64() < 0.2 {
			cands = append(cands, cands[0])
		}
		split := make([]float64, len(cands))
		var sum float64
		for c := range split {
			split[c] = 0.1 + rng.Float64()
			sum += split[c]
		}
		for c, p := range cands {
			paths = append(paths, ServingPath{Req: rq, Path: p, Rate: s.Rates[rq.Item][rq.Node] * split[c] / sum})
		}
	}
	return s, paths
}

// perLinkProblem is the Eq. (15) LP built term by term — one z variable
// and one row per (path, link) saving, nothing folded or merged — kept as
// the oracle for perPathProblem's aggregated form.
func perLinkProblem(t *testing.T, s *Spec, paths []ServingPath, nodes []graph.NodeID, nodeIdx []int) *lp.Problem {
	t.Helper()
	nx := len(nodes) * s.NumItems
	xIdx := func(vi, i int) int { return vi*s.NumItems + i }
	zs, err := enumerateSavings(nil, s, paths, nodeIdx, xIdx, 1)
	if err != nil {
		t.Fatal(err)
	}
	prob := lputil.NewProblem(nx + len(zs))
	prob.SetSense(lp.Maximize)
	for j := 0; j < nx; j++ {
		prob.SetBounds(j, 0, 1)
	}
	row := lp.NewRowBuilder(prob)
	for zi, z := range zs {
		zv := nx + zi
		prob.SetObjectiveCoeff(zv, z.weight)
		prob.SetBounds(zv, 0, 1)
		row.Add(zv, 1)
		for _, j := range z.idx {
			row.Add(j, -1)
		}
		if err := row.Constrain(lp.LE, 0); err != nil {
			t.Fatal(err)
		}
	}
	for vi, v := range nodes {
		for i := 0; i < s.NumItems; i++ {
			row.Add(xIdx(vi, i), 1)
		}
		if err := row.Constrain(lp.LE, s.CacheCap[v]); err != nil {
			t.Fatal(err)
		}
	}
	return prob
}

// The aggregated Eq. (15) LP has the per-(path, link) LP's optimum on
// randomized instances that exercise every reduction (repeated downstream
// sets, singleton folds, pinned nodes mid-path, zero-cost links,
// multi-path fractional rates), and the pipage-rounded placement keeps
// Alg. 1's (1-1/e) guarantee against it.
func TestPerPathLPMatchesPerLinkOracle(t *testing.T) {
	const instances = 240
	rng := rand.New(rand.NewSource(15))
	var merged, folded, pinnedMid, zeroCost, multiPath int
	for trial := 0; trial < instances; trial++ {
		s, paths := perPathInstance(rng, 4+rng.Intn(9), 1+rng.Intn(4), 1+rng.Intn(3))
		nodes, nodeIdx := cacheSlots(s)
		agg, err := perPathProblem(nil, s, paths, nodes, nodeIdx, 1)
		if err != nil {
			t.Fatal(err)
		}
		oracle := perLinkProblem(t, s, paths, nodes, nodeIdx)
		got, err := agg.Solve()
		if err != nil {
			t.Fatalf("trial %d: aggregated LP: %v", trial, err)
		}
		want, err := oracle.Solve()
		if err != nil {
			t.Fatalf("trial %d: per-link LP: %v", trial, err)
		}
		if math.Abs(got.Objective-want.Objective) > 1e-9*(1+math.Abs(want.Objective)) {
			t.Fatalf("trial %d: aggregated optimum %.12g, per-link %.12g", trial, got.Objective, want.Objective)
		}

		// Coverage of the reductions and instance features.
		nx := len(nodes) * s.NumItems
		zs, err := enumerateSavings(nil, s, paths, nodeIdx, func(vi, i int) int { return vi*s.NumItems + i }, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, terms := aggregateSavings(zs, nx)
		multi := 0
		for _, z := range zs {
			if len(z.idx) == 1 {
				folded++
			}
			if len(z.idx) > 1 {
				multi++
			}
		}
		merged += multi - len(terms)
		byReq := map[Request]int{}
		for _, sp := range paths {
			byReq[sp.Req]++
			for j, id := range sp.Path.Arcs {
				if s.G.Arc(id).Cost == 0 {
					zeroCost++
				}
				if j > 0 && s.IsPinned(s.G.Arc(id).From) {
					pinnedMid++
				}
			}
		}
		for _, n := range byReq {
			if n > 1 {
				multiPath++
			}
		}

		// Alg. 1's bound: F(rounded) >= (1-1/e) * (LP optimum + the
		// savings pinned nodes guarantee, which the LP leaves out).
		pl, err := placePerPathLP(nil, s, paths, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CheckFeasible(pl); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		base := PerPathSaving(s, paths, s.NewPlacement())
		if f, bound := PerPathSaving(s, paths, pl), (1-1/math.E)*(want.Objective+base); f < bound-1e-9*(1+bound) {
			t.Fatalf("trial %d: rounded saving %v below (1-1/e) bound %v", trial, f, bound)
		}
	}
	t.Logf("%d instances: %d merged terms, %d singleton folds, %d pinned mid-path crossings, %d zero-cost path links, %d multi-path requests",
		instances, merged, folded, pinnedMid, zeroCost, multiPath)
	for name, n := range map[string]int{"merged": merged, "folded": folded, "pinned mid-path": pinnedMid, "zero-cost": zeroCost, "multi-path": multiPath} {
		if n == 0 {
			t.Errorf("no instance exercised %s", name)
		}
	}
}

// The aggregated LP is the same problem for any enumeration worker count:
// merged terms are numbered in path order.
func TestPerPathProblemWorkerInvariant(t *testing.T) {
	s, paths := perPathInstance(rand.New(rand.NewSource(4)), 30, 12, 3)
	nodes, nodeIdx := cacheSlots(s)
	one, err := perPathProblem(nil, s, paths, nodes, nodeIdx, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := perPathProblem(context.Background(), s, paths, nodes, nodeIdx, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := one.Solve()
	if err != nil {
		t.Fatal(err)
	}
	b, err := four.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if one.NumVars() != four.NumVars() || one.NumConstraints() != four.NumConstraints() {
		t.Fatalf("shape %dx%d vs %dx%d", one.NumVars(), one.NumConstraints(), four.NumVars(), four.NumConstraints())
	}
	for j := range a.X {
		if math.Float64bits(a.X[j]) != math.Float64bits(b.X[j]) {
			t.Fatalf("x[%d]: %v (1 worker) vs %v (4 workers)", j, a.X[j], b.X[j])
		}
	}
}

// BenchmarkPlacePerPathLP times one cold Eq. (15) LP + pipage placement on
// a 30-node, 24-item instance with up to two serving paths per request.
func BenchmarkPlacePerPathLP(b *testing.B) {
	s, paths := perPathInstance(rand.New(rand.NewSource(1)), 30, 24, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := placePerPathLP(nil, s, paths, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}
