package mathx

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveDenseKnown(t *testing.T) {
	a := [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}
	b := []float64{8, -11, -3}
	x, err := SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestSolveDensePivoting(t *testing.T) {
	// Zero leading pivot requires a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	x, err := SolveDense(a, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 4 || x[1] != 3 {
		t.Fatalf("got %v, want [4 3]", x)
	}
}

func TestSolveDenseErrors(t *testing.T) {
	if _, err := SolveDense(nil, nil); err == nil {
		t.Fatalf("empty system must error")
	}
	if _, err := SolveDense([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Fatalf("non-square system must error")
	}
	if _, err := SolveDense([][]float64{{1, 2}, {2, 4}}, []float64{1, 2}); err == nil {
		t.Fatalf("singular system must error")
	}
	if _, err := SolveDense([][]float64{{1, 2}, {3, 4}}, []float64{1}); err == nil {
		t.Fatalf("rhs length mismatch must error")
	}
}

// Property: residual of SolveDense is tiny for random diagonally dominant
// systems.
func TestSolveDenseResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := make([][]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			sum := 0.0
			for j := range a[i] {
				a[i][j] = rng.NormFloat64()
				sum += math.Abs(a[i][j])
			}
			a[i][i] = sum + 1 // diagonal dominance
			b[i] = rng.NormFloat64()
		}
		x, err := SolveDense(a, b)
		if err != nil {
			return false
		}
		for i := range a {
			r := -b[i]
			for j := range a[i] {
				r += a[i][j] * x[j]
			}
			if math.Abs(r) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func buildLaplacian(n int) (*SparseMatrix, []float64) {
	// 1-D Laplacian with Dirichlet ends: SPD.
	m := NewSparseMatrix(n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		m.Add(i, i, 2)
		if i > 0 {
			m.Add(i, i-1, -1)
		}
		if i < n-1 {
			m.Add(i, i+1, -1)
		}
		b[i] = 1
	}
	return m, b
}

func TestSparseSolversAgreeWithDense(t *testing.T) {
	const n = 30
	m, b := buildLaplacian(n)

	dense := make([][]float64, n)
	for i := range dense {
		dense[i] = make([]float64, n)
		dense[i][i] = 2
		if i > 0 {
			dense[i][i-1] = -1
		}
		if i < n-1 {
			dense[i][i+1] = -1
		}
	}
	want, err := SolveDense(dense, b)
	if err != nil {
		t.Fatal(err)
	}

	cg, _, err := m.SolveCG(b, 1e-12, 10000)
	if err != nil {
		t.Fatalf("CG: %v", err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(cg[i]-want[i]) > 1e-6 {
			t.Fatalf("CG[%d] = %g, want %g", i, cg[i], want[i])
		}
	}
}

func TestSparseMulVec(t *testing.T) {
	m, _ := buildLaplacian(4)
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	m.MulVec(x, y)
	want := []float64{0, 0, 0, 5} // tridiagonal [2,-1] stencil
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

func TestSparseAccumulates(t *testing.T) {
	m := NewSparseMatrix(2)
	m.Add(0, 1, -1)
	m.Add(0, 1, -1) // accumulate into the same entry
	m.Add(0, 0, 3)
	y := make([]float64, 2)
	m.MulVec([]float64{1, 1}, y)
	if y[0] != 1 {
		t.Fatalf("accumulated entry wrong: y[0] = %g, want 1", y[0])
	}
}

// buildMesh2D builds the n×n 5-point mesh Laplacian with Dirichlet boundary
// (the structure of the power-grid IR-drop systems) and a uniform RHS.
func buildMesh2D(n int) (*SparseMatrix, []float64) {
	m := NewSparseMatrix(n * n)
	b := make([]float64, n*n)
	at := func(r, c int) int { return r*n + c }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			m.Add(at(r, c), at(r, c), 4)
			if r > 0 {
				m.Add(at(r, c), at(r-1, c), -1)
			}
			if r < n-1 {
				m.Add(at(r, c), at(r+1, c), -1)
			}
			if c > 0 {
				m.Add(at(r, c), at(r, c-1), -1)
			}
			if c < n-1 {
				m.Add(at(r, c), at(r, c+1), -1)
			}
			b[at(r, c)] = 1
		}
	}
	return m, b
}

// TestSolversAgreeOnSPDSystems is the table-driven agreement check: on small
// SPD systems CG and dense elimination must produce the same solution.
func TestSolversAgreeOnSPDSystems(t *testing.T) {
	cases := []struct {
		name   string
		sparse *SparseMatrix
		b      []float64
	}{
		{"laplacian1d-1", nil, nil},
		{"laplacian1d-2", nil, nil},
		{"laplacian1d-13", nil, nil},
		{"mesh2d-5", nil, nil},
		{"diag-only", nil, nil},
	}
	cases[0].sparse, cases[0].b = buildLaplacian(1)
	cases[1].sparse, cases[1].b = buildLaplacian(2)
	cases[2].sparse, cases[2].b = buildLaplacian(13)
	cases[3].sparse, cases[3].b = buildMesh2D(5)
	d := NewSparseMatrix(4)
	for i := 0; i < 4; i++ {
		d.Add(i, i, float64(i+1))
	}
	cases[4].sparse, cases[4].b = d, []float64{4, 3, 2, 1}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.sparse.N
			dense := make([][]float64, n)
			for i := range dense {
				dense[i] = make([]float64, n)
				unit := make([]float64, n)
				unit[i] = 1
				tc.sparse.MulVec(unit, dense[i]) // column i of A = row i (symmetric)
			}
			want, err := SolveDense(dense, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			cg, cgIters, err := tc.sparse.SolveCG(tc.b, 1e-12, 10000)
			if err != nil {
				t.Fatalf("CG: %v", err)
			}
			if cgIters <= 0 {
				t.Fatalf("iteration count must be positive: cg %d", cgIters)
			}
			for i := 0; i < n; i++ {
				if math.Abs(cg[i]-want[i]) > 1e-6 {
					t.Fatalf("CG[%d] = %g, want %g", i, cg[i], want[i])
				}
			}
		})
	}
}

// TestNonSPDReturnsError: the old solver divided by pᵀAp unguarded and
// silently emitted NaN/Inf; now an indefinite matrix must produce ErrNotSPD
// and never a poisoned solution.
func TestNonSPDReturnsError(t *testing.T) {
	// Symmetric indefinite: eigenvalues 3 and -1.
	ind := NewSparseMatrix(2)
	ind.Add(0, 0, 1)
	ind.Add(1, 1, 1)
	ind.Add(0, 1, 2)
	ind.Add(1, 0, 2)
	// RHS aligned with the negative-eigenvalue direction so the very first
	// search direction has negative curvature.
	b := []float64{1, -1}
	x, _, err := ind.SolveCG(b, 1e-10, 100)
	if err == nil {
		t.Fatal("indefinite matrix must error")
	}
	if !errors.Is(err, ErrNotSPD) {
		t.Fatalf("error %v does not wrap ErrNotSPD", err)
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("NaN/Inf leaked into the solution: %v", x)
		}
	}
	// Negative diagonal: the first search direction b = (2, 1) has
	// curvature −4 + 1 < 0.
	neg := NewSparseMatrix(2)
	neg.Add(0, 0, -1)
	neg.Add(1, 1, 1)
	if _, _, err := neg.SolveCG([]float64{2, 1}, 1e-10, 100); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("negative diagonal must yield ErrNotSPD, got %v", err)
	}
	// Zero matrix row → zero curvature, also non-SPD.
	zero := NewSparseMatrix(2)
	zero.Add(1, 1, 1)
	if _, _, err := zero.SolveCG([]float64{1, 1}, 1e-10, 100); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("singular matrix must yield ErrNotSPD, got %v", err)
	}
}

// TestWorkspaceSolverReuse: repeated MG-PCG solves on one Workspace stay
// correct across two mesh sizes (each with its own MeshMG, so no state
// leaks between solves when the workspace shrinks and regrows) and
// allocate nothing once warm — the production power-grid contract.
func TestWorkspaceSolverReuse(t *testing.T) {
	var ws Workspace
	big, bigMG, bigB := buildMesh(t, 15, 1.5, 3)
	small, smallMG, smallB := buildMesh(t, 7, 0.8, 4)
	systems := []struct {
		m  *SparseMatrix
		mg *MeshMG
		b  []float64
	}{{big, bigMG, bigB}, {small, smallMG, smallB}}
	for round := 0; round < 3; round++ {
		for si, sys := range systems {
			x, _, err := sys.m.SolveMGW(&ws, sys.mg, sys.b, 1e-12, 200)
			if err != nil {
				t.Fatal(err)
			}
			scratch := make([]float64, sys.m.N)
			if rel := sys.m.residualNorm(sys.b, x, scratch) / math.Sqrt(dot(sys.b, sys.b)); rel > 1e-10 {
				t.Fatalf("round %d system %d: residual %g", round, si, rel)
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := big.SolveMGW(&ws, bigMG, bigB, 1e-12, 200); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm workspace MG-PCG solve allocates %.0f objects, want 0", allocs)
	}
}

func TestCGZeroRHS(t *testing.T) {
	m, _ := buildLaplacian(5)
	x, iters, err := m.SolveCG(make([]float64, 5), 1e-12, 100)
	if err != nil || iters != 0 {
		t.Fatalf("zero rhs should solve instantly: %v (%d iters)", err, iters)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatalf("zero rhs must give zero solution")
		}
	}
}
