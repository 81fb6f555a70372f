package mathx

import (
	"fmt"
	"math"
)

func log(x float64) float64 { return math.Log(x) }
func exp(x float64) float64 { return math.Exp(x) }

// ErrNotSPD is returned by the conjugate-gradient solvers when the Krylov
// iteration encounters non-positive curvature (pᵀ·A·p ≤ 0), which means the
// matrix is not symmetric positive definite (or round-off has destroyed
// definiteness). The previous behaviour was a silent divide-by-zero that
// propagated NaN/Inf into the solution.
var ErrNotSPD = fmt.Errorf("mathx: matrix is not positive definite")

// SolveDense solves the n×n linear system A·x = b by Gaussian elimination
// with partial pivoting. A is row-major and is not modified.
func SolveDense(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("mathx: bad system dimensions (%d rows, %d rhs)", n, len(b))
	}
	// Working copies.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, fmt.Errorf("mathx: row %d has %d columns, want %d", i, len(a[i]), n)
		}
		m[i] = append([]float64(nil), a[i]...)
	}
	x := append([]float64(nil), b...)

	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		best := math.Abs(m[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m[r][col]); v > best {
				piv, best = r, v
			}
		}
		if best == 0 {
			return nil, fmt.Errorf("mathx: singular matrix at column %d", col)
		}
		m[col], m[piv] = m[piv], m[col]
		x[col], x[piv] = x[piv], x[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for c := i + 1; c < n; c++ {
			s -= m[i][c] * x[c]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}

// SparseMatrix is a simple row-compressed symmetric-positive-definite-ish
// sparse matrix for the resistive-mesh solvers. It has two phases:
// assembly, where Add accumulates entries into per-row slices (linear scan —
// mesh rows carry ≤ 4 off-diagonals), and frozen, after Freeze flattens the
// rows into a single CSR backing array for cache-friendly MulVec. Add on a
// frozen matrix panics: appending into the flattened arrays would silently
// corrupt neighbouring rows.
type SparseMatrix struct {
	N    int
	cols [][]int32
	vals [][]float64
	diag []float64

	// Frozen CSR layout: row r occupies fcols/fvals[rowPtr[r]:rowPtr[r+1]]
	// in the row's original insertion order (so frozen MulVec sums in the
	// exact same order as assembly MulVec — bit-identical results). The
	// diagonal stays in diag.
	frozen bool
	rowPtr []int32
	fcols  []int32
	fvals  []float64
}

// NewSparseMatrix creates an empty n×n sparse matrix.
func NewSparseMatrix(n int) *SparseMatrix {
	return &SparseMatrix{
		N:    n,
		cols: make([][]int32, n),
		vals: make([][]float64, n),
		diag: make([]float64, n),
	}
}

// NewFrozenCSR wraps pre-built CSR arrays as an already-frozen matrix
// without copying: rowPtr has length n+1, cols/vals length rowPtr[n] hold
// the off-diagonals, diag length n the diagonal. Callers that cache a
// sparsity pattern (the power-grid mesh) share rowPtr/cols across instances
// and refill only vals/diag.
func NewFrozenCSR(n int, rowPtr, cols []int32, vals, diag []float64) (*SparseMatrix, error) {
	switch {
	case n < 0 || len(rowPtr) != n+1 || len(diag) != n:
		return nil, fmt.Errorf("mathx: bad CSR shape (n=%d, rowPtr=%d, diag=%d)", n, len(rowPtr), len(diag))
	case len(cols) != int(rowPtr[n]) || len(vals) != int(rowPtr[n]):
		return nil, fmt.Errorf("mathx: CSR nnz mismatch (rowPtr[n]=%d, cols=%d, vals=%d)", rowPtr[n], len(cols), len(vals))
	}
	return &SparseMatrix{N: n, diag: diag, frozen: true, rowPtr: rowPtr, fcols: cols, fvals: vals}, nil
}

// Freeze seals assembly and flattens the per-row slices into one contiguous
// CSR backing array. MulVec afterwards streams rowPtr/fcols/fvals linearly
// (and in parallel row blocks on large systems) instead of chasing n row
// headers; results are bit-identical because each row keeps its insertion
// order. Freeze is idempotent; Add after Freeze panics.
func (s *SparseMatrix) Freeze() {
	if s.frozen {
		return
	}
	nnz := 0
	for _, c := range s.cols {
		nnz += len(c)
	}
	s.rowPtr = make([]int32, s.N+1)
	s.fcols = make([]int32, 0, nnz)
	s.fvals = make([]float64, 0, nnz)
	for r := 0; r < s.N; r++ {
		s.rowPtr[r] = int32(len(s.fcols))
		s.fcols = append(s.fcols, s.cols[r]...)
		s.fvals = append(s.fvals, s.vals[r]...)
	}
	s.rowPtr[s.N] = int32(len(s.fcols))
	s.cols, s.vals = nil, nil // assembly storage is dead; release it
	s.frozen = true
}

// Frozen reports whether the matrix has been sealed by Freeze.
func (s *SparseMatrix) Frozen() bool { return s.frozen }

// Add accumulates v into entry (r, c). Diagonal entries are kept separately.
// Panics if the matrix has been frozen — the CSR arrays cannot grow.
func (s *SparseMatrix) Add(r, c int, v float64) {
	if s.frozen {
		panic("mathx: Add on frozen SparseMatrix (assembly is sealed after Freeze)")
	}
	if r == c {
		s.diag[r] += v
		return
	}
	// Linear scan: rows in mesh problems have ≤ 4 off-diagonals.
	for i, cc := range s.cols[r] {
		if int(cc) == c {
			s.vals[r][i] += v
			return
		}
	}
	s.cols[r] = append(s.cols[r], int32(c))
	s.vals[r] = append(s.vals[r], v)
}

// row returns the off-diagonal columns and values of row r in either phase.
func (s *SparseMatrix) row(r int) ([]int32, []float64) {
	if s.frozen {
		lo, hi := s.rowPtr[r], s.rowPtr[r+1]
		return s.fcols[lo:hi], s.fvals[lo:hi]
	}
	return s.cols[r], s.vals[r]
}

// MulVec computes y = A·x. On a frozen matrix the rows stream from the flat
// CSR arrays and split across row blocks when the system is large and
// GOMAXPROCS > 1 (each y[r] is computed independently, so the parallel
// split is bit-deterministic).
func (s *SparseMatrix) MulVec(x, y []float64) {
	if s.frozen {
		if parallelOK(s.N) {
			parFor(s.N, func(lo, hi int) { s.mulVecRows(x, y, lo, hi) })
		} else {
			s.mulVecRows(x, y, 0, s.N)
		}
		return
	}
	for r := 0; r < s.N; r++ {
		sum := s.diag[r] * x[r]
		cols, vals := s.cols[r], s.vals[r]
		for i := range cols {
			sum += vals[i] * x[cols[i]]
		}
		y[r] = sum
	}
}

// mulVecRows is the frozen CSR kernel for rows [lo, hi).
func (s *SparseMatrix) mulVecRows(x, y []float64, lo, hi int) {
	rp, cols, vals, diag := s.rowPtr, s.fcols, s.fvals, s.diag
	for r := lo; r < hi; r++ {
		sum := diag[r] * x[r]
		for i := rp[r]; i < rp[r+1]; i++ {
			sum += vals[i] * x[cols[i]]
		}
		y[r] = sum
	}
}

// residualNorm returns ‖b − A·x‖₂ using scratch (length N) for A·x.
func (s *SparseMatrix) residualNorm(b, x, scratch []float64) float64 {
	s.MulVec(x, scratch)
	sum := 0.0
	for i := range b {
		d := b[i] - scratch[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Workspace holds the scratch vectors of the iterative solvers so repeated
// solves of same-sized systems allocate nothing. A zero Workspace is ready
// to use; it grows on demand and is NOT safe for concurrent use — each
// goroutine needs its own (or take one from a sync.Pool).
//
// The solution slice returned by SolveMGW aliases the workspace and is
// only valid until the next solve that reuses it.
type Workspace struct {
	x, r, p, z, ap []float64
}

// grow resizes every scratch vector to length n and zeroes x.
func (w *Workspace) grow(n int) {
	if cap(w.x) < n {
		w.x = make([]float64, n)
		w.r = make([]float64, n)
		w.p = make([]float64, n)
		w.z = make([]float64, n)
		w.ap = make([]float64, n)
	}
	w.x, w.r, w.p, w.z, w.ap = w.x[:n], w.r[:n], w.p[:n], w.z[:n], w.ap[:n]
	for i := range w.x {
		w.x[i] = 0
	}
}

// Convergence semantics shared by SolveCG, SolveMG, and the MG-PCG solvers:
// every solver returns (x, iters, err) where iters is the number of
// iterations performed, and convergence means the residual satisfies
// ‖b − A·x‖₂ ≤ tol·‖b‖₂ (CG and MG-PCG use the recursively-updated
// residual, which tracks the true one to round-off). On iteration
// exhaustion the best iterate is returned together with an error wrapping
// ErrNoConverge that records the final relative residual.

// noConverge builds the shared non-convergence error.
func noConverge(method string, iters int, relRes float64) error {
	return fmt.Errorf("mathx: %s: %w after %d iterations (relative residual %.3g)",
		method, ErrNoConverge, iters, relRes)
}

// SolveCG solves A·x = b by (unpreconditioned) conjugate gradients; A must
// be symmetric positive definite. Returns the solution and iterations used.
// Non-positive curvature (a non-SPD matrix, or round-off on tiny meshes)
// returns an error wrapping ErrNotSPD instead of silently producing
// NaN/Inf solutions. It is the reference the multigrid solvers are
// differentially tested against; production mesh solves use SolveMGW.
func (s *SparseMatrix) SolveCG(b []float64, tol float64, maxIter int) ([]float64, int, error) {
	n := s.N
	if len(b) != n {
		return nil, 0, fmt.Errorf("mathx: rhs length %d, want %d", len(b), n)
	}
	var ws Workspace
	ws.grow(n)
	x, r, p, ap := ws.x, ws.r, ws.p, ws.ap
	copy(r, b)
	rr := dot(r, r)
	bNorm := math.Sqrt(rr)
	if bNorm == 0 {
		return x, 0, nil
	}
	copy(p, r)
	rNorm := bNorm
	for iter := 1; iter <= maxIter; iter++ {
		s.MulVec(p, ap)
		pAp := dot(p, ap)
		// Curvature guard: pᵀAp must be strictly positive for an SPD matrix.
		// NaN also fails this comparison, so poisoned inputs are caught too.
		if !(pAp > 0) {
			return nil, iter, fmt.Errorf("mathx: CG: curvature pᵀAp = %g at iteration %d: %w", pAp, iter, ErrNotSPD)
		}
		alpha := rr / pAp
		// Gated like MulVec: build the parallel closure only on systems
		// large enough to amortize it (parallelOK). Element-wise updates are
		// bit-deterministic under any block split.
		if parallelOK(n) {
			parFor(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					x[i] += alpha * p[i]
					r[i] -= alpha * ap[i]
				}
			})
		} else {
			for i := range x {
				x[i] += alpha * p[i]
				r[i] -= alpha * ap[i]
			}
		}
		rrNew := dot(r, r)
		rNorm = math.Sqrt(rrNew)
		if rNorm <= tol*bNorm {
			return x, iter, nil
		}
		beta := rrNew / rr
		if parallelOK(n) {
			parFor(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					p[i] = r[i] + beta*p[i]
				}
			})
		} else {
			for i := range p {
				p[i] = r[i] + beta*p[i]
			}
		}
		rr = rrNew
	}
	return x, maxIter, noConverge("CG", maxIter, rNorm/bNorm)
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
