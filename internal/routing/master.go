package routing

import (
	"context"
	"fmt"
	"math"
	"slices"

	"jcr/internal/core/lputil"
	"jcr/internal/graph"
	"jcr/internal/lp"
)

// This file solves the coupled MMSFP exactly as a Dantzig–Wolfe path
// master by column generation (DESIGN.md §3.3). The master has one EQ row
// per request (item k, sink t) with right-hand side d_kt, one LE row per
// capacitated real arc that some column uses, one column per generated
// path from the item's virtual source to the sink (its cost the path's
// cost), and one unserved amount per request in [0, d_kt], priced at a
// penalty, which keeps every restricted master feasible. The unserved
// amount is carried as the demand row's slack (see solveRestricted).
//
// Pricing runs one Dijkstra per item from its virtual source with arc
// weights c_e - pi_e, where pi_e <= 0 is the capacity row's dual (0 for
// arcs without a row), and adds a path for every request whose reduced
// cost dist[t] - sigma_r is below -priceTol. When a round adds nothing,
// the duals are feasible for the full path LP, so the restricted master is
// optimal for it; by flow decomposition the full path LP has the arc-flow
// LP's optimum. A capacity row enters only with the first column that
// crosses its arc: until then the constraint is slack and its zero dual is
// exactly what pricing assumes.
//
// Each call is a pure function of its inputs: no basis and no column pool
// outlives it, so a Reuse handle changes only the counters it keeps.

// Column-generation constants, named in one place (jcrlint tol-literal).
const (
	// priceTol is how far below zero a path's reduced cost must fall for
	// the path to enter the master; it sits above the simplex's own
	// optimality tolerance, so a column already in the master never
	// prices out again on roundoff.
	priceTol = 1e-9
	// unservedTol is the total unserved demand at or below which the
	// master counts every request as served.
	unservedTol = 1e-9
	// penaltyGrowth multiplies the unserved penalty when a feasible
	// instance's master still leaves demand unserved.
	penaltyGrowth = 16
	// maxPenaltyRaises bounds those raises; each one grows the penalty
	// by penaltyGrowth, so the last is about 4e9 times the first.
	maxPenaltyRaises = 8
	// maxPriceRounds bounds the pricing rounds of one column-generation
	// run. A round adds only paths the master lacks, so the loop ends
	// anyway; the cap turns a numerically stalled run into an error.
	maxPriceRounds = 1000
)

// mcRequest is one demand row of the path master: item k's rate at sink.
type mcRequest struct {
	k      int
	sink   graph.NodeID
	demand float64
}

// mcPath is one path column: the request it serves, its arcs in the
// auxiliary graph (starting at the item's virtual source), and its cost.
type mcPath struct {
	req  int
	arcs []graph.ArcID
	cost float64
}

// pathMaster is the working state of one MMSFP solve: the requests, the
// path columns generated so far, and the capacity rows they opened.
// Variable p is path p's flow. Row r < len(reqs) is request r's demand
// row; row len(reqs)+c is capacity row c.
type pathMaster struct {
	aux    *graph.Auxiliary
	reqs   []mcRequest
	byItem [][]int // request indices of each item, in sorted sink order

	paths    []mcPath
	reqPaths [][]int // path indices of each request

	capRow   []int           // capacity row of each arc, -1 when none yet
	capArcs  []graph.ArcID   // arc of each capacity row, in opening order
	capPaths [][]int         // path indices crossing each capacity row
	weights  []float64       // pricing weights, one per arc
	stats    *lp.SolverStats // nil, or the Reuse counters each solve feeds
}

// multicommodityLP solves the coupled MMSFP exactly with the path master
// and returns per-item arc flows indexed like aux.G's arcs. An instance
// whose demand cannot fit the shared capacities returns an error wrapping
// lp.ErrInfeasible, on exactly the instances the arc-flow LP's phase 1
// rejects. A non-nil reuse only counts the master's LP solves (LPStats).
func multicommodityLP(ctx context.Context, aux *graph.Auxiliary, active []itemDemand, reuse *Reuse) ([][]float64, error) {
	var stats *lp.SolverStats
	if reuse != nil {
		stats = &reuse.lpStats
	}
	flows, _, err := newPathMaster(aux, active, stats).solve(ctx)
	return flows, err
}

func newPathMaster(aux *graph.Auxiliary, active []itemDemand, stats *lp.SolverStats) *pathMaster {
	m := &pathMaster{
		aux:     aux,
		byItem:  make([][]int, len(active)),
		capRow:  make([]int, aux.G.NumArcs()),
		weights: make([]float64, aux.G.NumArcs()),
		stats:   stats,
	}
	for k, ad := range active {
		for _, t := range ad.sorted {
			m.byItem[k] = append(m.byItem[k], len(m.reqs))
			m.reqs = append(m.reqs, mcRequest{k: k, sink: t, demand: ad.sinks[t]})
		}
	}
	m.reqPaths = make([][]int, len(m.reqs))
	for id := range m.capRow {
		m.capRow[id] = -1
	}
	return m
}

// solve runs the penalized master to convergence and returns its per-item
// arc flows and path cost. Demand left unserved sends it to phase I (path
// cost 0, unserved cost 1): if even the least unserved amount exceeds
// lp.FeasTol/2 the instance is infeasible — the arc-flow LP's phase-1
// optimum is at least twice that amount, past its own tolerance. If not,
// the penalty was too small to buy the last units, so it grows and the
// penalized master runs again over the columns found so far, until what
// it leaves unserved is the least possible.
func (m *pathMaster) solve(ctx context.Context) ([][]float64, float64, error) {
	penalty := m.initialPenalty()
	leastUnserved := math.Inf(1)
	for raise := 0; ; raise++ {
		sol, err := m.generate(ctx, penalty)
		if err != nil {
			return nil, 0, err
		}
		unserved := m.unserved(sol)
		if unserved <= unservedTol {
			flows, cost := m.flows(sol)
			return flows, cost, nil
		}
		if math.IsInf(leastUnserved, 1) {
			phase1, err := m.generate(ctx, 0)
			if err != nil {
				return nil, 0, err
			}
			leastUnserved = m.unserved(phase1)
			if leastUnserved > lp.FeasTol/2 {
				return nil, 0, fmt.Errorf("routing: path master: %w (%.3g demand cannot be routed)", lp.ErrInfeasible, leastUnserved)
			}
		}
		if unserved <= leastUnserved+unservedTol {
			flows, cost := m.flows(sol)
			return flows, cost, nil
		}
		if raise == maxPenaltyRaises {
			return nil, 0, fmt.Errorf("routing: path master: %.3g demand unserved at penalty %g, %.3g routable", unserved, penalty, leastUnserved)
		}
		penalty *= penaltyGrowth
	}
}

// initialPenalty prices an unserved unit above every simple path: one
// more than the sum of all finite arc costs.
func (m *pathMaster) initialPenalty() float64 {
	total := 1.0
	for _, a := range m.aux.G.Arcs() {
		if !math.IsInf(a.Cost, 1) {
			total += a.Cost
		}
	}
	return total
}

// generate runs column generation to convergence and returns the final
// restricted master's solution. penalty > 0 is the penalized master (path
// columns at their cost, unserved demand at penalty); penalty 0 is phase
// I (path columns free, unserved demand at 1).
func (m *pathMaster) generate(ctx context.Context, penalty float64) (*lp.Solution, error) {
	for round := 0; round < maxPriceRounds; round++ {
		sol, err := m.solveRestricted(ctx, penalty)
		if err != nil {
			return nil, err
		}
		if m.price(sol.Duals, penalty > 0) == 0 {
			return sol, nil
		}
	}
	return nil, fmt.Errorf("routing: path master: pricing still improving after %d rounds", maxPriceRounds)
}

// solveRestricted builds the restricted master over the current columns
// and rows and solves it cold. Request r's unserved column is its demand
// row's slack: the EQ row sum_p x_p + u_r = d_r with u_r in [0, d_r] is the
// LE row sum_p x_p <= d_r, and the unserved cost w·u_r = w·d_r - w·sum_p x_p
// moves onto the path columns as -w. The all-slack start is then feasible,
// so the simplex skips phase 1. The returned duals are the EQ form's:
// sigma_r = w + the LE row's dual, pi_e as solved.
func (m *pathMaster) solveRestricted(ctx context.Context, penalty float64) (*lp.Solution, error) {
	unservedCost := 1.0
	if penalty > 0 {
		unservedCost = penalty
	}
	p := lputil.NewProblem(len(m.paths))
	for pi, pa := range m.paths {
		c := -unservedCost
		if penalty > 0 {
			c += pa.cost
		}
		p.SetObjectiveCoeff(pi, c)
	}
	ones := make([]float64, len(m.paths)) // no row has more columns
	for i := range ones {
		ones[i] = 1
	}
	for r, rq := range m.reqs {
		cols := m.reqPaths[r]
		if err := p.AddConstraint(cols, ones[:len(cols)], lp.LE, rq.demand); err != nil {
			return nil, fmt.Errorf("routing: path master: %w", err)
		}
	}
	for c, id := range m.capArcs {
		cols := m.capPaths[c]
		if err := p.AddConstraint(cols, ones[:len(cols)], lp.LE, m.aux.G.Arc(id).Cap); err != nil {
			return nil, fmt.Errorf("routing: path master: %w", err)
		}
	}
	sol, err := lputil.Solve(ctx, "routing: path master", p)
	if err != nil {
		return nil, err
	}
	for r := range m.reqs {
		sol.Duals[r] += unservedCost
	}
	if m.stats != nil {
		m.stats.Solves++
		m.stats.ColdSolves++
		m.stats.AddCounters(sol)
	}
	return sol, nil
}

// price adds every path whose reduced cost under the duals is below
// -priceTol, at most one per request (its shortest under the
// dual-adjusted weights), and reports how many it added. Path costs count
// only in the penalized master (withCost); phase I prices on the capacity
// duals alone.
func (m *pathMaster) price(duals []float64, withCost bool) int {
	g := m.aux.G
	nr := len(m.reqs)
	for id := range m.weights {
		m.weights[id] = 0
		if withCost {
			m.weights[id] = g.Arc(id).Cost
		}
	}
	for c, id := range m.capArcs {
		// Capacity duals are <= 0; a positive one is roundoff and would
		// only make a weight negative.
		if pi := duals[nr+c]; pi < 0 {
			m.weights[id] -= pi
		}
	}
	added := 0
	for k, reqs := range m.byItem {
		tree := graph.TreeOfWeights(g, m.aux.VirtualSource[k], m.weights)
		for _, r := range reqs {
			t := m.reqs[r].sink
			if tree.Dist[t]-duals[r] >= -priceTol {
				continue
			}
			path, ok := tree.PathTo(g, t)
			if !ok || m.hasPath(r, path.Arcs) {
				continue
			}
			m.addPath(r, path.Arcs)
			added++
		}
	}
	return added
}

// hasPath reports whether request r already has a column on these arcs.
func (m *pathMaster) hasPath(r int, arcs []graph.ArcID) bool {
	for _, pi := range m.reqPaths[r] {
		if slices.Equal(m.paths[pi].arcs, arcs) {
			return true
		}
	}
	return false
}

// addPath appends a path column for request r, opening a capacity row for
// every capacitated arc it is the first column to cross.
func (m *pathMaster) addPath(r int, arcs []graph.ArcID) {
	g := m.aux.G
	pi := len(m.paths)
	var cost float64
	for _, id := range arcs {
		a := g.Arc(id)
		cost += a.Cost
		if math.IsInf(a.Cap, 1) {
			continue
		}
		c := m.capRow[id]
		if c < 0 {
			c = len(m.capArcs)
			m.capRow[id] = c
			m.capArcs = append(m.capArcs, id)
			m.capPaths = append(m.capPaths, nil)
		}
		m.capPaths[c] = append(m.capPaths[c], pi)
	}
	m.paths = append(m.paths, mcPath{req: r, arcs: arcs, cost: cost})
	m.reqPaths[r] = append(m.reqPaths[r], pi)
}

// unserved sums the demand rows' slacks in a restricted master solution:
// the demand its paths leave unserved.
func (m *pathMaster) unserved(sol *lp.Solution) float64 {
	var u float64
	for r, rq := range m.reqs {
		left := rq.demand
		for _, pi := range m.reqPaths[r] {
			left -= sol.X[pi]
		}
		u += math.Max(left, 0)
	}
	return u
}

// flows collapses a restricted master solution into per-item arc flows,
// zeroing values at or below flowEps as the arc extraction always has,
// and returns the paths' total cost.
func (m *pathMaster) flows(sol *lp.Solution) ([][]float64, float64) {
	out := make([][]float64, len(m.byItem))
	for k := range out {
		out[k] = make([]float64, m.aux.G.NumArcs())
	}
	var cost float64
	for pi, pa := range m.paths {
		x := sol.X[pi]
		if x <= 0 {
			continue
		}
		cost += x * pa.cost
		f := out[m.reqs[pa.req].k]
		for _, id := range pa.arcs {
			f[id] += x
		}
	}
	floor := lputil.Floor(flowEps)
	for _, f := range out {
		for id, v := range f {
			f[id] = floor(v)
		}
	}
	return out, cost
}
