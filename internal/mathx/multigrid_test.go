package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// buildMesh assembles the pinned-center n×n 5-point mesh system (reflective
// boundaries, uniform edge conductance g) exactly as powergrid.Mesh does,
// with a deterministic randomized RHS, and the matching MeshMG hierarchy.
func buildMesh(t testing.TB, n int, g float64, seed int64) (*SparseMatrix, *MeshMG, []float64) {
	t.Helper()
	center := (n/2)*n + n/2
	idx := make([]int, n*n)
	cnt := 0
	for i := range idx {
		if i == center {
			idx[i] = -1
			continue
		}
		idx[i] = cnt
		cnt++
	}
	m := NewSparseMatrix(cnt)
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, cnt)
	at := func(r, c int) int { return r*n + c }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			u := at(r, c)
			if idx[u] < 0 {
				continue
			}
			row := idx[u]
			b[row] = (0.5 + rng.Float64()) * 1e-4
			deg := 0.0
			for _, nb := range [][2]int{{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}} {
				if nb[0] < 0 || nb[0] >= n || nb[1] < 0 || nb[1] >= n {
					continue
				}
				deg += g
				if v := idx[at(nb[0], nb[1])]; v >= 0 {
					m.Add(row, v, -g)
				}
			}
			m.Add(row, row, deg)
		}
	}
	m.Freeze()
	mg, err := NewMeshMG(n, center)
	if err != nil {
		t.Fatalf("NewMeshMG(%d): %v", n, err)
	}
	if err := mg.SetConductance(g); err != nil {
		t.Fatal(err)
	}
	return m, mg, b
}

func maxRelDiff(a, b []float64) float64 {
	scale := 0.0
	for _, v := range b {
		if m := math.Abs(v); m > scale {
			scale = m
		}
	}
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst / scale
}

// TestMGAgreesWithCGAndDense cross-checks the three solver families on
// randomized SPD mesh systems: MG-PCG and standalone MG must agree with CG
// to 1e-9 at every size, and with dense Gaussian elimination where the
// dense solve is affordable.
func TestMGAgreesWithCGAndDense(t *testing.T) {
	for _, n := range []int{15, 31, 63, 127} {
		if n == 127 && testing.Short() {
			continue
		}
		m, mg, b := buildMesh(t, n, 0.7+float64(n)/100, int64(n))
		xcg, _, err := m.SolveCG(b, 1e-12, 40*m.N)
		if err != nil {
			t.Fatalf("n=%d: CG: %v", n, err)
		}
		var ws Workspace
		xmg, _, err := m.SolveMGW(&ws, mg, b, 1e-12, 200)
		if err != nil {
			t.Fatalf("n=%d: MG-PCG: %v", n, err)
		}
		if d := maxRelDiff(xmg, xcg); d > 1e-9 {
			t.Errorf("n=%d: MG-PCG vs CG max relative diff %.3g > 1e-9", n, d)
		}
		// Stationary iteration bottoms out near 1e-12 relative residual in
		// double precision; 1e-10 keeps it clear of that floor while still
		// an order below the 1e-9 agreement threshold.
		xsa, _, err := m.SolveMG(mg, b, 1e-10, 200)
		if err != nil {
			t.Fatalf("n=%d: standalone MG: %v", n, err)
		}
		if d := maxRelDiff(xsa, xcg); d > 1e-9 {
			t.Errorf("n=%d: standalone MG vs CG max relative diff %.3g > 1e-9", n, d)
		}
		if n <= 31 {
			dense := make([][]float64, m.N)
			for r := 0; r < m.N; r++ {
				dense[r] = make([]float64, m.N)
				dense[r][r] = m.diag[r]
				cols, vals := m.row(r)
				for i, c := range cols {
					dense[r][c] = vals[i]
				}
			}
			xd, err := SolveDense(dense, b)
			if err != nil {
				t.Fatalf("n=%d: dense: %v", n, err)
			}
			if d := maxRelDiff(xmg, xd); d > 1e-9 {
				t.Errorf("n=%d: MG-PCG vs dense max relative diff %.3g > 1e-9", n, d)
			}
		}
	}
}

// TestMGIterationCountsStayFlat is the point of the multigrid layer: the
// MG-preconditioned iteration count must stay below a small constant as the
// mesh doubles, while plain CG's grows roughly linearly with n.
func TestMGIterationCountsStayFlat(t *testing.T) {
	sizes := []int{31, 63, 127}
	if !testing.Short() {
		sizes = append(sizes, 255)
	}
	var ws Workspace
	prevCG := 0
	for _, n := range sizes {
		m, mg, b := buildMesh(t, n, 1.0, 42)
		_, itMG, err := m.SolveMGW(&ws, mg, b, 1e-10, 200)
		if err != nil {
			t.Fatalf("n=%d: MG-PCG: %v", n, err)
		}
		if itMG > 25 {
			t.Errorf("n=%d: MG-PCG took %d iterations, want ≤ 25", n, itMG)
		}
		if n <= 127 {
			_, itCG, err := m.SolveCG(b, 1e-10, 40*m.N)
			if err != nil {
				t.Fatalf("n=%d: CG: %v", n, err)
			}
			if itCG <= prevCG {
				t.Errorf("n=%d: CG iterations %d did not grow past %d — the MG comparison is vacuous", n, itCG, prevCG)
			}
			prevCG = itCG
			t.Logf("n=%3d: MG-PCG %d iters, CG %d iters", n, itMG, itCG)
		} else {
			t.Logf("n=%3d: MG-PCG %d iters", n, itMG)
		}
	}
}

// TestAddAfterFreezePanics pins the loud-failure contract: Add on a frozen
// matrix must panic instead of silently corrupting the CSR arrays.
func TestAddAfterFreezePanics(t *testing.T) {
	m := NewSparseMatrix(4)
	m.Add(0, 1, -1)
	m.Add(1, 0, -1)
	m.Add(0, 0, 2)
	m.Add(1, 1, 2)
	m.Freeze()
	m.Freeze() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("Add after Freeze did not panic")
		}
	}()
	m.Add(2, 3, -1)
}

// TestFrozenMulVecBitIdentical: Freeze must not change MulVec output by a
// single bit (same per-row summation order), which is what lets the frozen
// path substitute into the golden-pinned report.
func TestFrozenMulVecBitIdentical(t *testing.T) {
	n := 31
	m, _, b := buildMesh(t, n, 1.3, 7)
	// Rebuild an unfrozen copy with identical assembly.
	m2, _, _ := buildMesh(t, n, 1.3, 7)
	_ = m2
	unfrozen := NewSparseMatrix(m.N)
	for r := 0; r < m.N; r++ {
		cols, vals := m.row(r)
		for i, c := range cols {
			unfrozen.Add(r, int(c), vals[i])
		}
		unfrozen.Add(r, r, m.diag[r])
	}
	y1 := make([]float64, m.N)
	y2 := make([]float64, m.N)
	m.MulVec(b, y1)
	unfrozen.MulVec(b, y2)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("frozen MulVec differs at %d: %v vs %v", i, y1[i], y2[i])
		}
	}
}

// TestNewFrozenCSRValidates rejects inconsistent CSR shapes.
func TestNewFrozenCSRValidates(t *testing.T) {
	if _, err := NewFrozenCSR(2, []int32{0, 1}, []int32{1}, []float64{-1}, []float64{1, 1}); err == nil {
		t.Error("short rowPtr accepted")
	}
	if _, err := NewFrozenCSR(2, []int32{0, 1, 2}, []int32{1}, []float64{-1}, []float64{1, 1}); err == nil {
		t.Error("nnz mismatch accepted")
	}
	m, err := NewFrozenCSR(2, []int32{0, 1, 2}, []int32{1, 0}, []float64{-1, -1}, []float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Frozen() {
		t.Error("NewFrozenCSR matrix not frozen")
	}
	y := make([]float64, 2)
	m.MulVec([]float64{1, 2}, y)
	if y[0] != 0 || y[1] != 3 {
		t.Errorf("frozen CSR MulVec wrong: %v", y)
	}
}
