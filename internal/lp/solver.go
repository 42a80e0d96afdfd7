package lp

import (
	"context"
	"errors"
	"math"
)

// SolverStats counts what a reusable Solver actually did, so callers (and
// the differential suite) can verify that warm starts happen instead of
// silently degrading to cold solves, and diagnose pricing-rule regressions
// without a profiler.
type SolverStats struct {
	// Solves is the total number of SolveContext calls.
	Solves int
	// WarmHits counts solves completed from the retained basis.
	WarmHits int
	// Rejected counts solves whose retained basis was turned down because
	// the problem's skeleton (variable count, row operators, or index
	// patterns) no longer matched it; each one ran cold.
	Rejected int
	// ColdSolves counts solves that (re)built all state from scratch,
	// including the cold halves of abandoned warm attempts.
	ColdSolves int
	// Fallbacks counts warm-start attempts abandoned for a cold solve
	// (structural value outside the frozen sparsity pattern, a retained
	// basis left primal infeasible by the update, numerical failure, or
	// any pivot-loop error).
	Fallbacks int
	// DenseFallbacks counts cold solves that fell through to the dense
	// tableau oracle after a sparse numerical failure.
	DenseFallbacks int

	// Cumulative per-solve iteration counters (see Solution for the
	// per-solve meanings).
	PrimalPivots int64
	BoundFlips   int64
	Refactors    int64
	EtaUpdates   int64
	EtaNNZ       int64
}

// AvgEtaNNZ is the average off-pivot nonzero count of the product-form
// basis updates, the density the work-triggered refactorization budgets
// against. Zero when no updates were appended.
func (s SolverStats) AvgEtaNNZ() float64 {
	if s.EtaUpdates == 0 {
		return 0
	}
	return float64(s.EtaNNZ) / float64(s.EtaUpdates)
}

// errWarmFallback tags an abandoned warm-start attempt; the Solver catches
// it (and every other warm-path error) and re-solves cold, so it never
// escapes the package.
var errWarmFallback = errors.New("lp: warm start abandoned")

// forceWarmNumericFailure, when true, makes the next warm-start attempt
// treat its basis refactorization as numerically singular (the errNumeric
// condition), exercising the cold-fallback path on demand. Test-only; the
// attempt that consumes it resets it.
var forceWarmNumericFailure bool

// Solver is a reusable handle over the sparse revised simplex. A one-shot
// Problem.SolveContext rebuilds the standardized form, factorizes the
// slack/artificial basis, and runs phase 1 before every solve; a Solver
// instead retains the previous solve's optimal basis, LU/eta factorization,
// and pricing state, and warm-starts the next solve when the problem is
// structurally unchanged — the workhorse loops (alternating optimization,
// the hourly online controller, experiment sweeps) solve long sequences of
// such problems.
//
// Warm-start policy: a solve is warm when the new problem has the same
// skeleton as the retained one (same variable count and, row by row, the
// same operator and index pattern — objective, bounds, right-hand sides,
// and coefficient values are free to move). A warm solve takes three steps:
//
//  1. sync the data: replay the problem's data-mutation log when the handle
//     solved this exact Problem before (O(changes)), or rescan the skeleton
//     otherwise;
//  2. refactorize if a basic column's matrix value moved, and recompute the
//     basic values if a right-hand side, bound, or value moved;
//  3. if the retained basis is still primal feasible, run primal
//     iterations from it, its factorization, and its reduced costs.
//
// Any other outcome — data outside the frozen sparsity pattern, a basis
// left primal infeasible, a numerical failure, or any pivot-loop error —
// abandons the attempt for a cold solve (phase 1 + phase 2 from scratch),
// and a sparse numerical failure there falls through to the dense tableau
// oracle. A Solver's verdict and objective therefore always match a fresh
// Problem.SolveContext to within the solver tolerances (the differential
// suite pins this at 1e-9). Solutions may differ across warm and cold
// paths only as alternate optima.
//
// A Solver is not safe for concurrent use. Never share one across parallel
// workers (e.g. Monte-Carlo samples): per-sequence handles keep `-workers N`
// runs bit-for-bit identical (see DESIGN.md §3.8-§3.9).
//
// A nil *Solver is valid and solves one-shot, so callers can thread an
// optional handle without branching.
type Solver struct {
	r         *revised
	prob      *Problem
	structGen int
	hasBasis  bool
	stats     SolverStats

	// Position in prob's data-mutation log after the last successful
	// solve; valid while logEpoch matches prob.mutEpoch.
	logEpoch int
	logPos   int

	// Reused scratch of the incremental warm update.
	patchCols []int
}

// warmChange summarizes what a warm update actually changed, which decides
// how much retained state survives.
type warmChange struct {
	ok        bool // false: data no longer fits the frozen skeleton
	valsBasic bool // a basic column's matrix value may have moved: refactorize
	bounds    bool // some bound moved: recompute beta, re-check strands
	rhs       bool // some right-hand side moved: recompute beta
	costsFull bool // full rescan, sense flip, or basic-column objective change
}

// NewSolver returns an empty handle; its first solve is necessarily cold.
func NewSolver() *Solver { return &Solver{} }

// Stats returns the cumulative counters. Nil-safe (zero stats).
func (s *Solver) Stats() SolverStats {
	if s == nil {
		return SolverStats{}
	}
	return s.stats
}

// Invalidate drops the retained basis and problem reference, forcing the
// next solve to run cold. Nil-safe.
func (s *Solver) Invalidate() {
	if s == nil {
		return
	}
	s.hasBasis = false
	s.r = nil
	s.prob = nil
}

// Solve is SolveContext without cancellation.
func (s *Solver) Solve(p *Problem) (*Solution, error) {
	return s.SolveContext(nil, p)
}

// SolveContext solves p, warm-starting from the retained basis when the
// problem is structurally unchanged since the previous successful solve
// (see the type comment for the policy). A nil receiver solves one-shot,
// identical to p.SolveContext.
func (s *Solver) SolveContext(ctx context.Context, p *Problem) (*Solution, error) {
	if s == nil {
		return p.SolveContext(ctx)
	}
	s.stats.Solves++
	if s.hasBasis {
		if !s.matches(p) {
			s.stats.Rejected++
			return s.coldSolve(ctx, p)
		}
		sol, err := s.warmSolve(ctx, p)
		if err == nil {
			s.stats.WarmHits++
			s.noteSolution(sol)
			s.retain(p)
			return sol, nil
		}
		// Every warm-path failure — structural slot mismatch, numerics,
		// a primal infeasible basis, or a pivot-loop error (including
		// context cancellation, whose partial pivots invalidated the
		// state) — falls back to an authoritative cold solve.
		s.stats.Fallbacks++
	}
	return s.coldSolve(ctx, p)
}

// retain records p as the problem behind the retained basis, including the
// mutation-log position future warm solves replay from.
func (s *Solver) retain(p *Problem) {
	s.prob = p
	s.structGen = p.structGen
	s.logEpoch = p.mutEpoch
	s.logPos = len(p.mut)
}

// noteSolution folds a successful solve's per-solve counters into the
// cumulative stats and the package-wide counters.
func (s *Solver) noteSolution(sol *Solution) {
	s.stats.AddCounters(sol)
	addGlobalCounters(sol)
}

// AddCounters folds one solve's iteration counters (pivots, bound flips,
// refactorizations, eta updates) into the cumulative ones, for callers
// that keep SolverStats over one-shot solves.
func (s *SolverStats) AddCounters(sol *Solution) {
	s.PrimalPivots += int64(sol.PrimalPivots)
	s.BoundFlips += int64(sol.BoundFlips)
	s.Refactors += int64(sol.Refactors)
	s.EtaUpdates += int64(sol.EtaUpdates)
	s.EtaNNZ += int64(sol.EtaNNZ)
}

// matches reports whether p has the same structural skeleton as the problem
// behind the retained basis. The retained reference is trusted only while
// its own structGen is unchanged (its owner may have added constraints
// since); p then matches either by identity or by a row-by-row comparison
// of operators and index patterns (values, bounds, objective, and
// right-hand sides are data and free to differ).
func (s *Solver) matches(p *Problem) bool {
	old := s.prob
	if old == nil || old.structGen != s.structGen {
		return false
	}
	if old == p {
		return true
	}
	if old.nvars != p.nvars || len(old.cons) != len(p.cons) {
		return false
	}
	for i := range p.cons {
		a, b := &old.cons[i], &p.cons[i]
		if a.op != b.op || len(a.idx) != len(b.idx) {
			return false
		}
		for k := range a.idx {
			if a.idx[k] != b.idx[k] {
				return false
			}
		}
	}
	return true
}

// applyMuts replays the tail of p's data-mutation log against the retained
// standardized form and cost vector, recording the columns to reprice as it
// goes. It is the O(changes) alternative to updateFrom's full rescan, valid
// because p is the identical Problem the form was last synchronized with.
func (s *Solver) applyMuts(p *Problem, muts []mutation) (ch warmChange) {
	r := s.r
	ch.ok = true
	sign := 1.0
	if p.sense == Maximize {
		sign = -1.0
	}
	for _, m := range muts {
		switch m.kind {
		case mutRHS:
			if r.f.refreshRHS(p, int(m.i)) != 0 {
				ch.rhs = true
			}
		case mutObj:
			j := int(m.j)
			r.c[j] = sign * p.obj[j]
			if r.inRow[j] >= 0 {
				ch.costsFull = true // basic cost moved: every dual moves
			} else {
				s.patchCols = append(s.patchCols, j)
			}
		case mutSense:
			sign = 1.0
			if p.sense == Maximize {
				sign = -1.0
			}
			ch.costsFull = true
		case mutBounds:
			r.f.refreshColBound(p, int(m.j))
			ch.bounds = true
		case mutCoeff:
			i, j := int(m.i), int(m.j)
			ok, changed := r.f.refreshCoeff(p, i, j)
			if !ok {
				ch.ok = false
				return ch
			}
			if r.f.refreshRHS(p, i) != 0 {
				ch.rhs = true
			}
			if changed {
				if r.inRow[j] >= 0 {
					ch.valsBasic = true
				} else {
					s.patchCols = append(s.patchCols, j)
					if r.atUp[j] && r.f.ub[j] > 0 {
						// A nonbasic-at-upper column contributes A_j u_j
						// to the basic values; its changed column forces
						// a beta recomputation.
						ch.bounds = true
					}
				}
			}
		}
	}
	return ch
}

// warmSolve attempts to re-solve p from the retained optimal basis, taking
// the three steps of the type comment. Any returned error means the caller
// must fall back to a cold solve; the retained state may then be
// arbitrarily clobbered, which is fine because coldSolve rebuilds it from
// scratch.
func (s *Solver) warmSolve(ctx context.Context, p *Problem) (*Solution, error) {
	r := s.r
	r.statsMark()
	s.patchCols = s.patchCols[:0]
	// Step 1: sync the data.
	var ch warmChange
	if p == s.prob && p.mutEpoch == s.logEpoch && s.logPos <= len(p.mut) {
		ch = s.applyMuts(p, p.mut[s.logPos:])
	} else {
		ch = r.f.updateFrom(p)
	}
	if !ch.ok {
		return nil, errWarmFallback
	}
	r.p = p
	r.ctx = ctx
	// Step 2: refresh the factorization and the basic values, as cheaply
	// as the change set allows.
	if ch.valsBasic || forceWarmNumericFailure {
		ferr := r.b.refactor(r.f, r.basis)
		if forceWarmNumericFailure {
			forceWarmNumericFailure = false
			ferr = errNumeric
		}
		if ferr != nil {
			return nil, ferr
		}
	}
	if ch.bounds {
		// A bound change can strand a nonbasic variable at an upper bound
		// that no longer exists (grew to +Inf) or collapsed onto the lower
		// bound; those rest at their lower bound instead.
		for j := 0; j < r.f.nStruct; j++ {
			if r.atUp[j] && r.inRow[j] < 0 && (math.IsInf(r.f.ub[j], 1) || r.f.ub[j] == 0) {
				r.atUp[j] = false
			}
		}
	}
	if ch.valsBasic || ch.bounds || ch.rhs {
		r.recomputeBeta()
	}
	// Refresh costs and reduced costs to match. Mutations that touched
	// nonbasic columns only reprice exactly those columns against the
	// still-valid duals.
	switch {
	case ch.costsFull:
		r.setPhase2Costs()
		r.computeZ()
	case ch.valsBasic:
		r.computeZ()
	case len(s.patchCols) > 0:
		if !r.zOK {
			r.computeZ() // retained duals unexpectedly stale: reprice everything
		} else {
			r.patchZ(s.patchCols)
		}
	}
	// Step 3: primal iterations from a still primal feasible basis.
	if !r.primalFeasible() {
		return nil, errWarmFallback
	}
	r.degenerate = 0
	if err := r.iterate(); err != nil {
		return nil, err
	}
	return r.solution(), nil
}

// primalFeasible reports whether every basic value is inside its box
// (within feasTol) and finite.
func (r *revised) primalFeasible() bool {
	for i := 0; i < r.f.m; i++ {
		v := r.beta[i]
		u := r.f.ub[r.basis[i]]
		if math.IsNaN(v) || v < -feasTol || v > u+feasTol {
			return false
		}
	}
	return true
}

// coldSolve mirrors Problem.SolveContext (same pivot sequence, same dense
// fallback, bit-identical results) and retains the working state for the
// next warm start on success.
func (s *Solver) coldSolve(ctx context.Context, p *Problem) (*Solution, error) {
	s.stats.ColdSolves++
	s.hasBasis = false
	s.r = nil
	s.prob = nil
	r := newRevised(p)
	r.ctx = ctx
	if err := r.solve(); err != nil {
		if errors.Is(err, errNumeric) {
			s.stats.DenseFallbacks++
			sol, derr := p.SolveDense(ctx)
			if derr == nil {
				addGlobalCounters(sol)
			}
			return sol, derr
		}
		return nil, err
	}
	s.r = r
	s.hasBasis = true
	s.retain(p)
	sol := r.solution()
	s.noteSolution(sol)
	return sol, nil
}
