package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// dualTol is the absolute slack the dual checks allow on the generator's
// small-integer data.
const dualTol = 1e-7

// dualCertificate checks that sol.Duals certify sol as optimal for p:
// row-dual signs (LE <= 0, GE >= 0 in the minimize sense), complementary
// slackness on slack rows, reduced-cost signs at the bounds, and strong
// duality with the bound terms of the boxed variables included. It
// returns "" when every check holds.
func dualCertificate(p *Problem, sol *Solution) string {
	if len(sol.Duals) != len(p.cons) {
		return fmt.Sprintf("%d duals for %d rows", len(sol.Duals), len(p.cons))
	}
	s := 1.0
	if p.sense == Maximize {
		s = -1
	}
	d := make([]float64, p.nvars)
	for j := range d {
		d[j] = s * p.obj[j]
	}
	dualObj := 0.0
	for i, c := range p.cons {
		y := sol.Duals[i]
		switch {
		case c.op == LE && y > dualTol:
			return fmt.Sprintf("LE row %d has dual %g > 0", i, y)
		case c.op == GE && y < -dualTol:
			return fmt.Sprintf("GE row %d has dual %g < 0", i, y)
		}
		lhs := 0.0
		for k, j := range c.idx {
			lhs += c.val[k] * sol.X[j]
			d[j] -= y * c.val[k]
		}
		if math.Abs(lhs-c.rhs) > dualTol && math.Abs(y) > dualTol {
			return fmt.Sprintf("row %d is slack by %g but has dual %g", i, lhs-c.rhs, y)
		}
		dualObj += y * c.rhs
	}
	for j, dj := range d {
		lo, hi, x := p.lower[j], p.upper[j], sol.X[j]
		atLo, atHi := x-lo <= dualTol, hi-x <= dualTol
		switch {
		case atLo && atHi:
			// Fixed variable: its reduced cost may take either sign.
		case atLo && dj < -dualTol:
			return fmt.Sprintf("x%d at its lower bound has reduced cost %g < 0", j, dj)
		case atHi && dj > dualTol:
			return fmt.Sprintf("x%d at its upper bound has reduced cost %g > 0", j, dj)
		case !atLo && !atHi && math.Abs(dj) > dualTol:
			return fmt.Sprintf("x%d strictly inside its box has reduced cost %g", j, dj)
		}
		switch {
		case dj < -dualTol && math.IsInf(hi, 1):
			return fmt.Sprintf("x%d has no upper bound but reduced cost %g < 0", j, dj)
		case dj < 0 && !math.IsInf(hi, 1):
			dualObj += dj * hi
		default:
			dualObj += dj * lo
		}
	}
	if primal := s * sol.Objective; math.Abs(primal-dualObj) > dualTol*(1+math.Abs(primal)) {
		return fmt.Sprintf("duality gap: primal %v, dual %v", primal, dualObj)
	}
	return ""
}

// Every optimal solve returns duals that certify its optimality — from the
// sparse revised path (one-shot and a warm Solver re-solve) and from the
// dense tableau alike.
func TestSolutionDualsCertifyOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	checked := map[string]int{}
	warmHits := 0
	for i := 0; i < 600; i++ {
		p := randomLP(rng)
		solver := NewSolver()
		paths := []struct {
			name  string
			solve func() (*Solution, error)
		}{
			{"revised", func() (*Solution, error) { return p.SolveContext(nil) }},
			{"dense", func() (*Solution, error) { return p.SolveDense(nil) }},
			{"solver-cold", func() (*Solution, error) { return solver.Solve(p) }},
			{"solver-warm", func() (*Solution, error) { return solver.Solve(p) }},
		}
		for _, path := range paths {
			sol, err := path.solve()
			if err != nil {
				continue
			}
			if msg := dualCertificate(p, sol); msg != "" {
				t.Fatalf("instance %d (%s): %s\n%s", i, path.name, msg, describeLP(p))
			}
			checked[path.name]++
		}
		warmHits += solver.Stats().WarmHits
	}
	if warmHits == 0 {
		t.Error("no re-solve took the warm path, so its duals went unchecked")
	}
	for _, name := range []string{"revised", "dense", "solver-cold", "solver-warm"} {
		if checked[name] == 0 {
			t.Errorf("no optimal instance checked on the %s path", name)
		}
	}
	t.Logf("certified optimal solves: %v", checked)
}
