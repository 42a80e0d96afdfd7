package routing

import (
	"math"
	"testing"

	"jcr/internal/graph"
	"jcr/internal/placement"
)

// reuseSpec: line 0-1-2-3 with tight cheap arcs and ample expensive
// parallels, origin 0 pinned, three items requested at nodes 1..3, one
// cache slot at nodes 1 and 2 so placements can move replicas around.
func reuseSpec() *placement.Spec {
	g := graph.New(4)
	for v := 0; v < 3; v++ {
		g.AddEdge(v, v+1, 1, 1.5)
		g.AddEdge(v, v+1, 5, 100)
	}
	return &placement.Spec{
		G:        g,
		NumItems: 3,
		CacheCap: []float64{0, 1, 1, 0},
		Pinned:   []graph.NodeID{0},
		Rates: [][]float64{
			{0, 1, 1, 1},
			{0, 1, 0, 1},
			{0, 0, 1, 1},
		},
	}
}

func samePaths(a, b []placement.ServingPath) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Req != b[i].Req || a[i].Rate != b[i].Rate || len(a[i].Path.Arcs) != len(b[i].Path.Arcs) {
			return false
		}
		for k := range a[i].Path.Arcs {
			if a[i].Path.Arcs[k] != b[i].Path.Arcs[k] {
				return false
			}
		}
	}
	return true
}

// TestReuseMatchesFresh routes a sequence of placements twice — once through
// a shared Reuse handle, once from scratch — and requires identical results
// every round: the caches may only change how much work a solve takes. The
// sequence revisits placements so the demand and auxiliary-graph caches
// actually hit.
func TestReuseMatchesFresh(t *testing.T) {
	s := reuseSpec()
	reuse := NewReuse()
	// Placement sequence: empty, item 0 at node 1, then converged (the
	// alternating loop's regime: a couple of moving rounds, then repeats —
	// the caches are depth-1, so only consecutive repeats can hit).
	mk := func(round int) *placement.Placement {
		pl := s.NewPlacement()
		if round > 2 {
			round = 2
		}
		switch round {
		case 1:
			pl.Stores[1][0] = true
		case 2:
			pl.Stores[1][0] = true
			pl.Stores[2][1] = true
		}
		return pl
	}
	for round := 0; round < 9; round++ {
		pl := mk(round)
		opts := Options{Fractional: true}
		fresh, err := Route(s, pl, opts)
		if err != nil {
			t.Fatalf("round %d fresh: %v", round, err)
		}
		opts.Reuse = reuse
		warm, err := Route(s, pl, opts)
		if err != nil {
			t.Fatalf("round %d reused: %v", round, err)
		}
		if warm.Method != fresh.Method {
			t.Fatalf("round %d: method %q with reuse, %q fresh", round, warm.Method, fresh.Method)
		}
		if math.Abs(warm.Cost-fresh.Cost) > 1e-9 {
			t.Fatalf("round %d: cost %v with reuse, %v fresh", round, warm.Cost, fresh.Cost)
		}
		if !samePaths(warm.Paths, fresh.Paths) {
			t.Fatalf("round %d: paths diverge between reused and fresh solves", round)
		}
	}
}

// TestReuseGraphMutationInvalidates flips an arc capacity in place (the
// fault-injection pattern) between two reused solves: the mutation
// generation must miss the auxiliary-graph and LP caches, so the second
// solve sees the degraded link instead of stale cached capacities.
func TestReuseGraphMutationInvalidates(t *testing.T) {
	s := twoItemSpec(10)
	pl := s.NewPlacement()
	reuse := NewReuse()
	opts := Options{Fractional: true, Reuse: reuse}
	res, err := Route(s, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodIndependent || math.Abs(res.Cost-2) > 1e-9 {
		t.Fatalf("ample capacity: method %q cost %v, want independent cost 2", res.Method, res.Cost)
	}
	// Fault: the cheap link degrades to capacity 1 (arc 0 in twoItemSpec).
	s.G.SetArcCap(0, 1)
	res, err = Route(s, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodLP {
		t.Errorf("after fault: method %q, want lp (stale cache?)", res.Method)
	}
	if math.Abs(res.Cost-6) > 1e-6 {
		t.Errorf("after fault: cost %v, want 6 (1 cheap + 1 expensive)", res.Cost)
	}
}

// TestReuseBestEffortKeepsCacheIntact exercises the best-effort filter,
// which deletes unreachable sinks: with a shared demand cache the filter
// must operate on a copy, so a later solve on a repaired graph serves the
// full demand again.
func TestReuseBestEffortKeepsCacheIntact(t *testing.T) {
	// Line 0-1 2: node 2 requests item 0 but is disconnected until repair.
	g := graph.New(3)
	g.AddArc(0, 1, 1, 10)
	s := &placement.Spec{
		G:        g,
		NumItems: 1,
		CacheCap: []float64{0, 0, 0},
		Pinned:   []graph.NodeID{0},
		Rates:    [][]float64{{0, 1, 1}},
	}
	pl := s.NewPlacement()
	reuse := NewReuse()
	opts := Options{Fractional: true, BestEffort: true, Reuse: reuse}
	res, err := Route(s, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unserved) != 1 {
		t.Fatalf("unserved = %v, want exactly node 2's request", res.Unserved)
	}
	// Repair: connect node 2. The demand cache (keyed by the same Spec) must
	// still hold node 2's rate.
	g.AddArc(1, 2, 1, 10)
	res, err = Route(s, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unserved) != 0 {
		t.Errorf("after repair: unserved = %v, want none", res.Unserved)
	}
	if math.Abs(res.Cost-3) > 1e-9 { // node1: 1 hop, node2: 2 hops
		t.Errorf("after repair: cost = %v, want 3", res.Cost)
	}
}
