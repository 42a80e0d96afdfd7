package routing

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"jcr/internal/faults"
	"jcr/internal/flow"
	"jcr/internal/graph"
	"jcr/internal/lp"
	"jcr/internal/placement"
)

// flowInstance builds a routing instance for the per-item flow tests and
// BenchmarkItemFlows: a connected random graph of n nodes (a path plus n
// random chords, every link an undirected AddEdge pair) whose finite
// capacities sit near the mean item demand, a pinned origin at node 0,
// and items cached at one to three random nodes with demand at about half
// of the nodes.
func flowInstance(r *rand.Rand, n, items int) (*placement.Spec, *placement.Placement) {
	g := graph.New(n)
	capacity := func() float64 { return 2 + 8*r.Float64() }
	for v := 1; v < n; v++ {
		g.AddEdge(r.Intn(v), v, float64(1+r.Intn(9)), capacity())
	}
	for e := 0; e < n; e++ {
		if u, v := r.Intn(n), r.Intn(n); u != v {
			g.AddEdge(u, v, float64(1+r.Intn(9)), capacity())
		}
	}
	s := &placement.Spec{
		G:        g,
		NumItems: items,
		CacheCap: make([]float64, n),
		Pinned:   []graph.NodeID{0},
		Rates:    make([][]float64, items),
	}
	pl := s.NewPlacement()
	for i := range s.Rates {
		s.Rates[i] = make([]float64, n)
		for v := 1; v < n; v++ {
			if r.Float64() < 0.5 {
				s.Rates[i][v] = 0.2 + 2*r.Float64()
			}
		}
		for c := r.Intn(3); c >= 0; c-- {
			pl.Stores[1+r.Intn(n-1)][i] = true
		}
	}
	return s, pl
}

// flowInputs returns the auxiliary graph and per-item demands RouteContext
// would route for (s, pl, opts) without a Reuse handle.
func flowInputs(t testing.TB, s *placement.Spec, pl *placement.Placement, opts Options) (*graph.Auxiliary, []itemDemand) {
	t.Helper()
	active, groups, _, err := demandSets(s, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return graph.NewAuxiliary(s.G, groups), active
}

// cloneItemFlow is the construction itemMinCostFlow replaced — clone aux.G,
// override capacities with SetArcCap, add the super-sink with
// graph.AddNode and AddArc, solve with flow.MinCostFlowContext — kept as
// the oracle for the pooled network.
func cloneItemFlow(aux *graph.Auxiliary, k int, ad itemDemand, capOf func(graph.ArcID, float64) float64) ([]float64, error) {
	gg := aux.G.Clone()
	if capOf != nil {
		for id := 0; id < aux.G.NumArcs(); id++ {
			gg.SetArcCap(id, capOf(id, aux.G.Arc(id).Cap))
		}
	}
	super := gg.AddNode()
	var total float64
	for _, t := range ad.sorted {
		gg.AddArc(t, super, 0, ad.sinks[t])
		total += ad.sinks[t]
	}
	res, err := flow.MinCostFlowContext(nil, gg, aux.VirtualSource[k], super, total)
	if err != nil {
		return nil, err
	}
	return res.Arc[:aux.G.NumArcs()], nil
}

// The pooled per-item flow is bit-identical to the clone-based construction
// under graph capacities, residual overrides and unlimited capacities —
// same arc flows to the last bit, same failures with the same shortfall —
// while one pool of networks serves instances of changing size.
func TestItemMinCostFlowMatchesClone(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	var solved, short int
	for trial := 0; trial < 120; trial++ {
		s, pl := flowInstance(r, 4+r.Intn(20), 1+r.Intn(5))
		aux, active := flowInputs(t, s, pl, Options{})
		residual := make([]float64, aux.G.NumArcs())
		for id := range residual {
			if c := aux.G.Arc(id).Cap; !math.IsInf(c, 1) {
				residual[id] = c * r.Float64()
			}
		}
		modes := map[string]func(graph.ArcID, float64) float64{
			"capacitated": nil,
			"residual": func(id graph.ArcID, c float64) float64 {
				if aux.IsVirtualArc(id) {
					return c
				}
				return residual[id]
			},
			"unlimited": unlimitedCap,
		}
		for _, mode := range []string{"capacitated", "residual", "unlimited"} {
			for k, ad := range active {
				got, gerr := itemMinCostFlow(nil, aux, k, ad, modes[mode])
				want, werr := cloneItemFlow(aux, k, ad, modes[mode])
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("trial %d %s item %d: pooled err %v, clone err %v", trial, mode, k, gerr, werr)
				}
				if gerr != nil {
					var gs, ws *flow.ShortfallError
					if !errors.As(gerr, &gs) || !errors.As(werr, &ws) || !errors.Is(gerr, flow.ErrInsufficientCapacity) {
						t.Fatalf("trial %d %s item %d: errors %v / %v are not shortfalls", trial, mode, k, gerr, werr)
					}
					if math.Float64bits(gs.Unrouted) != math.Float64bits(ws.Unrouted) {
						t.Fatalf("trial %d %s item %d: shortfall %v, clone %v", trial, mode, k, gs.Unrouted, ws.Unrouted)
					}
					short++
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d %s item %d: %d arcs, clone %d", trial, mode, k, len(got), len(want))
				}
				for id := range got {
					if math.Float64bits(got[id]) != math.Float64bits(want[id]) {
						t.Fatalf("trial %d %s item %d arc %d: %v, clone %v", trial, mode, k, id, got[id], want[id])
					}
				}
				solved++
			}
		}
	}
	if solved == 0 || short == 0 {
		t.Fatalf("suite covered %d solved and %d short flows; want both", solved, short)
	}
}

// In steady state a per-item flow allocates only the flow slice it
// returns: the residual network, potentials and Dijkstra scratch come
// from the pool.
func TestItemMinCostFlowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s, pl := flowInstance(rand.New(rand.NewSource(5)), 40, 8)
	aux, active := flowInputs(t, s, pl, Options{})
	for k, ad := range active {
		if _, err := itemMinCostFlow(nil, aux, k, ad, unlimitedCap); err != nil {
			t.Fatal(err)
		}
	}
	k := 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := itemMinCostFlow(nil, aux, k, active[k], unlimitedCap); err != nil {
			t.Fatal(err)
		}
		k = (k + 1) % len(active)
	})
	if allocs > 1 {
		t.Errorf("itemMinCostFlow allocates %.1f objects per call, want 1 (the returned flow)", allocs)
	}
}

// Concurrent items on the independent-flow path each draw their own
// network: four workers give the single worker's flows bit for bit (run
// under -race in CI).
func TestIndependentFlowsWorkersIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 6; trial++ {
		s, pl := flowInstance(r, 30, 12)
		aux, active := flowInputs(t, s, pl, Options{})
		seq, seqShort, err := independentFlows(nil, aux, active, 1)
		if err != nil {
			t.Fatal(err)
		}
		fan, fanShort, err := independentFlows(nil, aux, active, 4)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(seqShort) != math.Float64bits(fanShort) {
			t.Fatalf("trial %d: shortfall %v with 1 worker, %v with 4", trial, seqShort, fanShort)
		}
		for k := range seq {
			for id := range seq[k] {
				if math.Float64bits(seq[k][id]) != math.Float64bits(fan[k][id]) {
					t.Fatalf("trial %d item %d arc %d: %v with 1 worker, %v with 4", trial, k, id, seq[k][id], fan[k][id])
				}
			}
		}
	}
}

// lpSkipChecked reports whether splittableFlows would skip the coupled LP
// on (s, pl) because an item alone falls short by more than the LP's
// phase-1 tolerance, and on every such instance asserts the LP itself
// reports infeasible.
func lpSkipChecked(t *testing.T, s *placement.Spec, pl *placement.Placement, opts Options) bool {
	t.Helper()
	aux, active := flowInputs(t, s, pl, opts)
	_, shortfall, err := independentFlows(nil, aux, active, 1)
	if err != nil {
		t.Fatal(err)
	}
	if shortfall <= lp.FeasTol {
		return false
	}
	if _, err := multicommodityLP(nil, aux, active, nil); !errors.Is(err, lp.ErrInfeasible) {
		t.Errorf("lone shortfall %.3g but the coupled LP returned %v, want infeasible", shortfall, err)
	}
	return true
}

// Every instance of the routing quick suite whose LP gets skipped is
// infeasible for the LP.
func TestLPSkipOnlyWhenInfeasibleQuick(t *testing.T) {
	gen := rand.New(rand.NewSource(1))
	skipped := 0
	for trial := 0; trial < 400; trial++ {
		q := quickInstance{}.Generate(gen, 0).Interface().(quickInstance)
		if lpSkipChecked(t, q.s, q.pl, Options{}) {
			skipped++
		}
	}
	t.Logf("%d of 400 quick instances skip the LP", skipped)
	if skipped == 0 {
		t.Error("no quick instance exercised the LP skip")
	}
}

// The same holds hour by hour under seeded link outages and a capacity
// degradation, routed best-effort as the fault experiment does.
func TestLPSkipOnlyWhenInfeasibleFaults(t *testing.T) {
	const hours = 8
	r := rand.New(rand.NewSource(3))
	skipped, checked := 0, 0
	for trial := 0; trial < 12; trial++ {
		s, pl := flowInstance(r, 16, 6)
		sc, err := faults.RandomLinkFaults(s.G, hours, 4, 2, int64(100+trial))
		if err != nil {
			t.Fatal(err)
		}
		sc.Events = append(sc.Events, faults.Event{Kind: faults.LinkDegrade, Start: 2, Duration: 4, Link: 0, Factor: 0.3})
		for h := 0; h < hours; h++ {
			dec, _, _, err := sc.Apply(h, s, s)
			if err != nil {
				t.Fatal(err)
			}
			checked++
			if lpSkipChecked(t, dec, pl, Options{BestEffort: true}) {
				skipped++
			}
		}
	}
	t.Logf("%d of %d faulted hours skip the LP", skipped, checked)
	if skipped == 0 {
		t.Error("no faulted hour exercised the LP skip")
	}
}

// shortLinkSpec is one item requested at node 1 over a single link whose
// capacity falls short of the unit demand by deficit.
func shortLinkSpec(deficit float64) *placement.Spec {
	g := graph.New(2)
	g.AddArc(0, 1, 1, 1-deficit)
	return &placement.Spec{
		G:        g,
		NumItems: 1,
		CacheCap: []float64{0, 0},
		Pinned:   []graph.NodeID{0},
		Rates:    [][]float64{{0, 1}},
	}
}

// A lone shortfall that flow reports but that is within the LP's phase-1
// tolerance does not skip the LP: it still runs and accepts the instance.
// Past the tolerance the LP is skipped, and it would indeed have failed.
func TestLPSkipBoundary(t *testing.T) {
	for _, tc := range []struct {
		deficit float64
		method  string
	}{
		{3e-8, MethodLP},
		{5e-7, MethodSequential},
	} {
		s := shortLinkSpec(tc.deficit)
		aux, active := flowInputs(t, s, s.NewPlacement(), Options{})
		_, shortfall, err := independentFlows(nil, aux, active, 1)
		if err != nil {
			t.Fatal(err)
		}
		if shortfall <= 0 {
			t.Fatalf("deficit %g: flow reported no shortfall", tc.deficit)
		}
		_, method, _, err := splittableFlows(nil, aux, active, Options{LPMaxVars: defaultLPMaxVars})
		if err != nil {
			t.Fatal(err)
		}
		if method != tc.method {
			t.Errorf("deficit %g (shortfall %.3g): method %q, want %q", tc.deficit, shortfall, method, tc.method)
		}
		_, lpErr := multicommodityLP(nil, aux, active, nil)
		if skip := shortfall > lp.FeasTol; skip != errors.Is(lpErr, lp.ErrInfeasible) {
			t.Errorf("deficit %g: skip %v but LP returned %v", tc.deficit, skip, lpErr)
		}
	}
}

// Skipping an infeasible LP changes no routing under a Reuse handle: a
// sequence that alternates LP-routed and LP-skipped quick instances
// through one handle gives each instance's handle-free result.
func TestLPSkipKeepsReuseResults(t *testing.T) {
	gen := rand.New(rand.NewSource(1))
	var lpRouted, skipped []quickInstance
	for trial := 0; trial < 400 && (len(lpRouted) < 4 || len(skipped) < 4); trial++ {
		q := quickInstance{}.Generate(gen, 0).Interface().(quickInstance)
		res, err := Route(q.s, q.pl, Options{Fractional: true})
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case res.Method == MethodLP:
			lpRouted = append(lpRouted, q)
		case lpSkipChecked(t, q.s, q.pl, Options{}):
			skipped = append(skipped, q)
		}
	}
	if len(lpRouted) == 0 || len(skipped) == 0 {
		t.Fatalf("found %d LP-routed and %d LP-skipped instances; want both", len(lpRouted), len(skipped))
	}
	reuse := NewReuse()
	for step := 0; step < 2*len(skipped); step++ {
		q := lpRouted[(step/2)%len(lpRouted)]
		if step%2 == 1 {
			q = skipped[step/2]
		}
		warm, err := Route(q.s, q.pl, Options{Fractional: true, Reuse: reuse})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Route(q.s, q.pl, Options{Fractional: true})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Method != fresh.Method || !reflect.DeepEqual(warm.Paths, fresh.Paths) {
			t.Fatalf("step %d: routing through the handle (%s) differs from a fresh solve (%s)", step, warm.Method, fresh.Method)
		}
	}
}

// BenchmarkItemFlows times the independent per-item flows (step 1 of the
// splittable solve) on a 60-node, 24-item instance, one worker.
func BenchmarkItemFlows(b *testing.B) {
	s, pl := flowInstance(rand.New(rand.NewSource(2)), 60, 24)
	aux, active := flowInputs(b, s, pl, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := independentFlows(nil, aux, active, 1); err != nil {
			b.Fatal(err)
		}
	}
}
