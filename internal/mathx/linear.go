package mathx

import (
	"fmt"
	"math"
)

func log(x float64) float64 { return math.Log(x) }
func exp(x float64) float64 { return math.Exp(x) }

// ErrNotSPD is returned by the conjugate-gradient solver when the Krylov
// iteration encounters non-positive curvature (pᵀ·A·p ≤ 0), which means the
// matrix is not symmetric positive definite (or round-off has destroyed
// definiteness). The previous behaviour was a silent divide-by-zero that
// propagated NaN/Inf into the solution.
var ErrNotSPD = fmt.Errorf("mathx: matrix is not positive definite")

// SolveDense solves the n×n linear system A·x = b by Gaussian elimination
// with partial pivoting. A is row-major and is not modified. No production
// path calls it: it is the reference the tests hold faster special-purpose
// solvers to (powergrid's tridiagonal ladder matches it bit for bit).
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

// SparseMatrix is a simple row-compressed symmetric sparse matrix, the
// reference the tests assemble resistive meshes into: Add accumulates
// entries into per-row slices (linear scan — mesh rows carry ≤ 4
// off-diagonals), with the diagonal kept apart.
type SparseMatrix struct {
	N    int
	cols [][]int32
	vals [][]float64
	diag []float64
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

// Add accumulates v into entry (r, c). Diagonal entries are kept separately.
func (s *SparseMatrix) Add(r, c int, v float64) {
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

// MulVec computes y = A·x.
func (s *SparseMatrix) MulVec(x, y []float64) {
	for r := 0; r < s.N; r++ {
		sum := s.diag[r] * x[r]
		cols, vals := s.cols[r], s.vals[r]
		for i := range cols {
			sum += vals[i] * x[cols[i]]
		}
		y[r] = sum
	}
}

// SolveCG solves A·x = b by (unpreconditioned) conjugate gradients; A must
// be symmetric positive definite. It returns the solution and the
// iterations used; convergence means the recursively updated residual
// satisfies ‖b − A·x‖₂ ≤ tol·‖b‖₂. On iteration exhaustion the last
// iterate is returned with an error wrapping ErrNoConverge that records
// the final relative residual. Non-positive curvature (a non-SPD matrix,
// or round-off on tiny meshes) returns an error wrapping ErrNotSPD instead
// of silently producing NaN/Inf solutions. No production path calls it:
// it is the reference the tests hold powergrid's closed-form mesh drop to.
func (s *SparseMatrix) SolveCG(b []float64, tol float64, maxIter int) ([]float64, int, error) {
	n := s.N
	if len(b) != n {
		return nil, 0, fmt.Errorf("mathx: rhs length %d, want %d", len(b), n)
	}
	x, r, p, ap := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
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
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rrNew := dot(r, r)
		rNorm = math.Sqrt(rrNew)
		if rNorm <= tol*bNorm {
			return x, iter, nil
		}
		beta := rrNew / rr
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rr = rrNew
	}
	return x, maxIter, fmt.Errorf("mathx: CG: %w after %d iterations (relative residual %.3g)",
		ErrNoConverge, maxIter, rNorm/bNorm)
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
