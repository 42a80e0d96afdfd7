package lp

import (
	"math"
	"testing"
)

// fuzzMaxSteps bounds the mutation sequence one fuzz input can drive.
const fuzzMaxSteps = 24

// fuzzBytes hands out the fuzz input one byte at a time; past the end it
// yields zeros and reports exhaustion, so every input decodes to some LP.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (b *fuzzBytes) done() bool { return b.pos >= len(b.data) }

func (b *fuzzBytes) next() int {
	if b.done() {
		return 0
	}
	b.pos++
	return int(b.data[b.pos-1])
}

// small decodes one byte to an integer in [-k, k].
func (b *fuzzBytes) small(k int) float64 { return float64(b.next()%(2*k+1) - k) }

// bounds decodes a box [lo, hi] with lo in [-3, 3] and hi up to lo+7, or
// +Inf one time in nine (which lets unbounded rays appear).
func (b *fuzzBytes) bounds() (lo, hi float64) {
	lo = b.small(3)
	if w := b.next() % 9; w == 8 {
		hi = math.Inf(1)
	} else {
		hi = lo + float64(w)
	}
	return lo, hi
}

// decodeFuzzLP builds an LP of 1-5 variables and 0-5 rows from the input:
// sense, per-variable box and objective, then per row a variable mask,
// integer coefficients in [-4, 4] (zeros included, so some skeleton
// entries have no sparse slot), an operator, and a right-hand side.
func decodeFuzzLP(b *fuzzBytes) *Problem {
	n := 1 + b.next()%5
	p := NewProblem(n)
	if b.next()%2 == 1 {
		p.SetSense(Maximize)
	}
	for j := 0; j < n; j++ {
		lo, hi := b.bounds()
		p.SetBounds(j, lo, hi)
		p.SetObjectiveCoeff(j, b.small(4))
	}
	rows := b.next() % 6
	for r := 0; r < rows; r++ {
		mask := b.next() % (1 << n)
		if mask == 0 {
			mask = 1 << (r % n)
		}
		var idx []int
		var val []float64
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				idx = append(idx, j)
				val = append(val, b.small(4))
			}
		}
		op := []Op{LE, GE, EQ}[b.next()%3]
		if err := p.AddConstraint(idx, val, op, b.small(8)); err != nil {
			panic(err) // decoder bug: indices are distinct, values finite
		}
	}
	return p
}

// applyFuzzMutation decodes one data-only mutation and applies it to p:
// a right-hand side, an objective coefficient, a variable's box, an
// existing coefficient of a row's pattern, or the sense.
func applyFuzzMutation(b *fuzzBytes, p *Problem) {
	n := p.NumVars()
	switch b.next() % 5 {
	case 0:
		if m := p.NumConstraints(); m > 0 {
			if err := p.SetConstraintRHS(b.next()%m, b.small(8)); err != nil {
				panic(err)
			}
		}
	case 1:
		p.SetObjectiveCoeff(b.next()%n, b.small(4))
	case 2:
		j := b.next() % n
		lo, hi := b.bounds()
		p.SetBounds(j, lo, hi)
	case 3:
		if m := p.NumConstraints(); m > 0 {
			i := b.next() % m
			row := p.cons[i].idx
			if err := p.SetConstraintCoeff(i, row[b.next()%len(row)], b.small(4)); err != nil {
				panic(err)
			}
		}
	default:
		if p.sense == Minimize {
			p.SetSense(Maximize)
		} else {
			p.SetSense(Minimize)
		}
	}
}

// FuzzSolverMutations decodes its input into a small LP plus a sequence of
// right-hand-side, objective, bound, coefficient and sense mutations, and
// solves every step through one reusable Solver — exercising log replay,
// warm primal iterations, and the fallbacks to cold — and through the dense
// tableau oracle. Verdicts must match, optimal objectives must agree to
// diffObjTol, and the Solver's point must be feasible. The seed corpus is
// under testdata/fuzz/FuzzSolverMutations.
func FuzzSolverMutations(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b := &fuzzBytes{data: data}
		p := decodeFuzzLP(b)
		s := NewSolver()
		for step := 0; step <= fuzzMaxSteps; step++ {
			if step > 0 {
				if b.done() {
					return
				}
				applyFuzzMutation(b, p)
			}
			got, gerr := s.Solve(p)
			want, werr := p.SolveDense(nil)
			if gv, wv := verdict(gerr), verdict(werr); gv != wv {
				t.Fatalf("step %d: verdicts disagree: solver %q dense %q\n%s", step, gv, wv, describeLP(p))
			}
			if werr != nil {
				continue
			}
			if diff := math.Abs(got.Objective - want.Objective); diff > diffObjTol*(1+math.Abs(want.Objective)) {
				t.Fatalf("step %d: objectives disagree: solver %v dense %v (diff %g)\n%s",
					step, got.Objective, want.Objective, diff, describeLP(p))
			}
			if !feasible(p, got.X) {
				t.Fatalf("step %d: solver solution infeasible: %v\n%s", step, got.X, describeLP(p))
			}
		}
	})
}
