package lp

import "math"

// stdForm is the standardized problem both solvers conceptually share and
// the sparse revised simplex actually works on: every column is shifted to
// [0, ub_j] (structural lower bounds absorbed into the right-hand side),
// every row is sign-normalized to a nonnegative right-hand side, and slack,
// surplus, and artificial columns are appended after the structural ones.
// The constraint matrix is stored in compressed sparse column (CSC) form so
// that pricing and FTRAN touch only nonzeros.
type stdForm struct {
	m, n    int // rows, total columns
	nStruct int // structural columns (Problem.nvars)
	artFrom int // first artificial column index

	// CSC storage of the full m x n matrix (structural + slack/surplus +
	// artificial columns).
	colPtr []int
	rowInd []int
	values []float64

	// Row-major mirror of the CSC pattern for pivot-row pricing: row i's
	// entries are rowPtr[i]..rowPtr[i+1], each naming its column (rowCol)
	// and the position of its value inside the CSC values array (rowPos).
	// Values are read through rowPos, so warm updates that rewrite CSC
	// values never need to resynchronize the mirror. Within a row the
	// columns appear in ascending order. Built lazily by the first
	// priceRow call (rowPtr == nil until then): a solve that never prices
	// a pivot row — the zero/few-pivot one-shot case — skips the O(nnz)
	// build entirely.
	rowPtr []int
	rowCol []int
	rowPos []int

	ub     []float64 // shifted upper bounds, len n (artificials +Inf)
	rhs    []float64 // normalized right-hand sides, len m (all >= 0)
	basis0 []int     // initial basic column per row (slack or artificial)

	// neg records, per row, whether construction negated the row to make
	// the shifted right-hand side nonnegative. updateFrom keeps these flags
	// frozen so a data-only update preserves the column layout (see there).
	neg []bool

	// next is updateFrom's per-column write-cursor scratch, kept here so
	// repeated warm updates do not reallocate it.
	next []int
}

// colNNZ returns the nonzero count of column j.
func (f *stdForm) colNNZ(j int) int { return f.colPtr[j+1] - f.colPtr[j] }

// newStdForm builds the standardized sparse form of p. It mirrors the
// normalization of the dense tableau constructor (newTableau) exactly, so
// the two solvers see the same mathematical problem.
func newStdForm(p *Problem) *stdForm {
	m := len(p.cons)
	type rowInfo struct {
		op  Op
		rhs float64
		neg bool
	}
	rows := make([]rowInfo, m)
	for i, c := range p.cons {
		rhs := c.rhs
		// Shift by structural lower bounds: b' = b - A l.
		for k, j := range c.idx {
			rhs -= c.val[k] * p.lower[j]
		}
		op := c.op
		neg := false
		if rhs < 0 {
			rhs = -rhs
			neg = true
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		rows[i] = rowInfo{op: op, rhs: rhs, neg: neg}
	}
	nSlack, nArt, nnz := 0, 0, 0
	for _, r := range rows {
		if r.op != EQ {
			nSlack++
		}
		if r.op != LE {
			nArt++
		}
	}
	nStruct := p.nvars
	n := nStruct + nSlack + nArt
	f := &stdForm{
		m:       m,
		n:       n,
		nStruct: nStruct,
		artFrom: nStruct + nSlack,
		ub:      make([]float64, n),
		rhs:     make([]float64, m),
		basis0:  make([]int, m),
		neg:     make([]bool, m),
	}
	for i, r := range rows {
		f.neg[i] = r.neg
	}
	for j := 0; j < nStruct; j++ {
		f.ub[j] = p.upper[j] - p.lower[j]
	}
	for j := nStruct; j < n; j++ {
		f.ub[j] = math.Inf(1)
	}

	// Count structural-column nonzeros (AddConstraint rejects duplicate
	// indices, so each (row, col) pair appears at most once).
	counts := make([]int, n+1)
	for _, c := range p.cons {
		for k, j := range c.idx {
			if c.val[k] != 0 {
				counts[j]++
				nnz++
			}
		}
	}
	nnz += nSlack + nArt // one entry per slack/surplus/artificial column
	f.colPtr = make([]int, n+1)
	for j := 0; j < nStruct; j++ {
		f.colPtr[j+1] = f.colPtr[j] + counts[j]
	}
	// Extra columns are assigned below in row order, one nonzero each.
	f.rowInd = make([]int, nnz)
	f.values = make([]float64, nnz)
	next := make([]int, nStruct)
	for j := range next {
		next[j] = f.colPtr[j]
	}
	slack := nStruct
	art := f.artFrom
	// First pass fixes the extra-column pointers so the per-row fill below
	// can write them directly.
	extraPtr := f.colPtr[nStruct]
	for j := nStruct; j < n; j++ {
		f.colPtr[j] = extraPtr
		extraPtr++
		f.colPtr[j+1] = extraPtr
	}
	for i, c := range p.cons {
		r := rows[i]
		sign := 1.0
		if r.neg {
			sign = -1.0
		}
		for k, j := range c.idx {
			if c.val[k] == 0 {
				continue
			}
			f.rowInd[next[j]] = i
			f.values[next[j]] = sign * c.val[k]
			next[j]++
		}
		f.rhs[i] = r.rhs
		put := func(col int, v float64) {
			f.rowInd[f.colPtr[col]] = i
			f.values[f.colPtr[col]] = v
		}
		switch r.op {
		case LE:
			put(slack, 1)
			f.basis0[i] = slack
			slack++
		case GE:
			put(slack, -1)
			slack++
			put(art, 1)
			f.basis0[i] = art
			art++
		case EQ:
			put(art, 1)
			f.basis0[i] = art
			art++
		}
	}
	return f
}

// buildRowMirror derives the row-major view of the frozen CSC pattern.
// Iterating columns in ascending order per row keeps the mirror's column
// order sorted, which the sparse pivot-row gather relies on for
// accumulation order identical to dotCol's.
func (f *stdForm) buildRowMirror() {
	f.rowPtr = make([]int, f.m+1)
	for _, i := range f.rowInd {
		f.rowPtr[i+1]++
	}
	for i := 0; i < f.m; i++ {
		f.rowPtr[i+1] += f.rowPtr[i]
	}
	f.rowCol = make([]int, len(f.rowInd))
	f.rowPos = make([]int, len(f.rowInd))
	next := append([]int(nil), f.rowPtr[:f.m]...)
	for j := 0; j < f.n; j++ {
		for s := f.colPtr[j]; s < f.colPtr[j+1]; s++ {
			i := f.rowInd[s]
			f.rowCol[next[i]] = j
			f.rowPos[next[i]] = s
			next[i]++
		}
	}
}

// updateFrom rewrites the numeric payload of f — structural coefficient
// values, right-hand sides, and structural upper bounds — from p, which must
// be structurally identical to the problem f was built from: the same
// variable count and, row by row, the same operator and index pattern (the
// caller checks this; see Solver.matches). The row sign normalization (neg)
// and the column layout are frozen from construction time, so updated
// right-hand sides may come out negative — only a cold rebuild renormalizes
// them, and the warm path's primal-feasibility check decides whether the
// retained basis survives.
//
// ok is false when the new data does not fit the frozen sparsity pattern: a
// coefficient that was exactly zero at construction (and therefore has no
// CSC slot) became nonzero. The caller must then rebuild cold; f may be
// left partially updated, which is fine because the cold path builds a
// fresh stdForm. The returned change asks for a full cost reload (the
// rescan does not track objective edits) and reports which parts of the
// payload moved: any matrix value (the caller refactorizes the basis), any
// upper bound, or any right-hand side (the caller recomputes the basic
// values). Unmoved data leaves the retained basic values exactly as a
// mutation-log replay would.
func (f *stdForm) updateFrom(p *Problem) (ch warmChange) {
	ch.costsFull = true
	for j := 0; j < f.nStruct; j++ {
		ub := p.upper[j] - p.lower[j]
		//jcrlint:allow float-eq: exact-change detection decides the beta recomputation, not a tolerance check
		if f.ub[j] != ub {
			f.ub[j] = ub
			ch.bounds = true
		}
	}
	if f.next == nil {
		f.next = make([]int, f.nStruct)
	}
	next := f.next
	for j := range next {
		next[j] = f.colPtr[j]
	}
	for i := range p.cons {
		c := &p.cons[i]
		sign := 1.0
		if f.neg[i] {
			sign = -1.0
		}
		rhs := c.rhs
		for k, j := range c.idx {
			rhs -= c.val[k] * p.lower[j]
			v := sign * c.val[k]
			slot := next[j]
			if slot < f.colPtr[j+1] && f.rowInd[slot] == i {
				//jcrlint:allow float-eq: exact-change detection decides refactorization, not a tolerance check
				if f.values[slot] != v {
					f.values[slot] = v
					ch.valsBasic = true
				}
				next[j] = slot + 1
			} else if c.val[k] != 0 {
				// No slot: this entry was exactly zero when the CSC
				// pattern was built, so the skeleton cannot hold it.
				return ch
			}
		}
		//jcrlint:allow float-eq: exact-change detection decides the beta recomputation, not a tolerance check
		if rhs = sign * rhs; f.rhs[i] != rhs {
			f.rhs[i] = rhs
			ch.rhs = true
		}
	}
	ch.ok = true
	return ch
}

// refreshRHS recomputes the normalized right-hand side of row i from p
// (rhs minus the structural-lower-bound shift, under the frozen row sign)
// and returns how much it moved. It is the O(row-nnz) unit of an
// incremental warm update, against updateFrom's full rescan.
func (f *stdForm) refreshRHS(p *Problem, i int) float64 {
	c := &p.cons[i]
	rhs := c.rhs
	for k, j := range c.idx {
		rhs -= c.val[k] * p.lower[j]
	}
	if f.neg[i] {
		rhs = -rhs
	}
	delta := rhs - f.rhs[i]
	f.rhs[i] = rhs
	return delta
}

// refreshCoeff rewrites the CSC value of entry (i, j) from p's constraint
// data. ok is false when the entry has no CSC slot (it was exactly zero
// when the pattern was built) and the new value is nonzero — the frozen
// skeleton cannot hold it, forcing a cold rebuild. changed reports whether
// the stored value moved. The caller refreshes row i's right-hand side
// separately (the lower-bound shift of the row involves the coefficient).
func (f *stdForm) refreshCoeff(p *Problem, i, j int) (ok, changed bool) {
	var v float64
	for k, jj := range p.cons[i].idx {
		if jj == j {
			v = p.cons[i].val[k]
			break
		}
	}
	if f.neg[i] {
		v = -v
	}
	for s := f.colPtr[j]; s < f.colPtr[j+1]; s++ {
		if f.rowInd[s] == i {
			//jcrlint:allow float-eq: exact-change detection decides refactorization, not a tolerance check
			if f.values[s] != v {
				f.values[s] = v
				return true, true
			}
			return true, false
		}
	}
	return v == 0, false
}

// refreshColBound rewrites the shifted upper bound of structural column j
// and the right-hand sides of every row the column touches (a lower-bound
// move shifts them all).
func (f *stdForm) refreshColBound(p *Problem, j int) {
	f.ub[j] = p.upper[j] - p.lower[j]
	for s := f.colPtr[j]; s < f.colPtr[j+1]; s++ {
		f.refreshRHS(p, f.rowInd[s])
	}
}

// scatterCol adds column j of the matrix into the dense vector x.
func (f *stdForm) scatterCol(j int, x []float64) {
	for p := f.colPtr[j]; p < f.colPtr[j+1]; p++ {
		x[f.rowInd[p]] += f.values[p]
	}
}

// dotCol returns the inner product of column j with the dense vector y.
func (f *stdForm) dotCol(j int, y []float64) float64 {
	var s float64
	for p := f.colPtr[j]; p < f.colPtr[j+1]; p++ {
		s += f.values[p] * y[f.rowInd[p]]
	}
	return s
}
