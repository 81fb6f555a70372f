package powergrid

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"nanometer/internal/mathx"
)

// TestSolveMatchesDirectSolve pins the scaling argument: the drop Solve
// derives from the unit drop agrees to 1e-12 relative with a dense
// elimination of the same (n, R, I) system assembled directly, including
// ±20 % current variants and a negative draw.
func TestSolveMatchesDirectSolve(t *testing.T) {
	cases := []struct{ r, i float64 }{
		{0.029, 1.3e-4},
		{0.04, 1.2e-4 * 0.8},
		{0.04, 1.2e-4 * 1.2},
		{3.7, -2.5e-3},
	}
	for _, n := range []int{5, 9, 15} {
		for _, c := range cases {
			got, err := (&Mesh{N: n, EdgeOhms: c.r, NodeCurrentA: c.i}).Solve()
			if err != nil {
				t.Fatal(err)
			}
			want := denseDrop(t, n, 1/c.r, c.i)
			if rel := math.Abs(got-want) / want; !(rel <= 1e-12) {
				t.Errorf("n=%d R=%g I=%g: scaled drop %.17g, direct %.17g (rel %.2g)", n, c.r, c.i, got, want, rel)
			}
		}
	}
}

// TestSolveMatchesCGReference checks the scaled drop against the same
// system solved by plain CG to a tight tolerance, up to the report's
// default grid side.
func TestSolveMatchesCGReference(t *testing.T) {
	for _, n := range []int{5, 11, 21, 41} {
		const r, cur = 0.031, 1.1e-4
		want := cgDrop(t, n, 1/r, cur)
		got, err := (&Mesh{N: n, EdgeOhms: r, NodeCurrentA: cur}).Solve()
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got-want) / want; !(rel <= 1e-12) {
			t.Errorf("n=%d: drop %.17g, CG reference %.17g (rel %.2g)", n, got, want, rel)
		}
	}
}

// TestUnitDropMatchesDenseAndCG holds the closed form to the maximum
// drop over every node of the assembled unit mesh, solved by dense
// elimination at the smallest sizes and by CG at tolerance 1e-14 at every
// odd n up to 63. Taking the maximum over all nodes also pins that the
// drop peaks at the corner the formula evaluates.
func TestUnitDropMatchesDenseAndCG(t *testing.T) {
	check := func(n int, method string, want float64) {
		if got := unitDrop(n); !(math.Abs(got-want)/want <= 1e-12) {
			t.Errorf("n=%d: φ %.17g, %s maximum %.17g (rel %.2g)", n, got, method, want, math.Abs(got-want)/want)
		}
	}
	for _, n := range []int{5, 7, 9, 11} {
		check(n, "dense", denseDrop(t, n, 1, 1))
	}
	for n := MinMeshN; n <= 63; n += 2 {
		check(n, "CG", cgDrop(t, n, 1, 1))
	}
}

// TestUnitDropIncreasing: φ is finite, positive and strictly increasing
// over every admissible grid side.
func TestUnitDropIncreasing(t *testing.T) {
	prev := 0.0
	for n := MinMeshN; n <= MaxMeshN; n += 2 {
		phi := unitDrop(n)
		if math.IsNaN(phi) || math.IsInf(phi, 0) || !(phi > prev) {
			t.Fatalf("φ(%d) = %g after φ(%d) = %g, want finite and increasing", n, phi, n-2, prev)
		}
		prev = phi
	}
}

// cgDrop solves the pinned n×n mesh with edge conductance g and draw cur
// per node by CG at tolerance 1e-14 and returns its largest |drop| over
// all nodes.
func cgDrop(t *testing.T, n int, g, cur float64) float64 {
	t.Helper()
	a, b := referenceMesh(n, g, cur)
	x, _, err := a.SolveCG(b, 1e-14, 100*a.N)
	if err != nil {
		t.Fatal(err)
	}
	return maxAbs(x)
}

// denseDrop is cgDrop by dense elimination.
func denseDrop(t *testing.T, n int, g, cur float64) float64 {
	t.Helper()
	a, b := referenceMesh(n, g, cur)
	dense := make([][]float64, a.N)
	for i := range dense {
		dense[i] = make([]float64, a.N)
		unit := make([]float64, a.N)
		unit[i] = 1
		a.MulVec(unit, dense[i]) // column i of A = row i (symmetric)
	}
	x, err := mathx.SolveDense(dense, b)
	if err != nil {
		t.Fatal(err)
	}
	return maxAbs(x)
}

func maxAbs(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		m = math.Max(m, math.Abs(v))
	}
	return m
}

// referenceMesh assembles the pinned n×n mesh with edge conductance g and
// draw cur per node through the map-of-rows SparseMatrix.
func referenceMesh(n int, g, cur float64) (*mathx.SparseMatrix, []float64) {
	center := (n/2)*n + n/2
	row := func(r, c int) int {
		if u := r*n + c; u < center {
			return u
		} else {
			return u - 1
		}
	}
	a := mathx.NewSparseMatrix(n*n - 1)
	b := make([]float64, n*n-1)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if r*n+c == center {
				continue
			}
			i := row(r, c)
			b[i] = cur
			for _, nb := range [][2]int{{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}} {
				if nb[0] < 0 || nb[0] >= n || nb[1] < 0 || nb[1] >= n {
					continue
				}
				a.Add(i, i, g)
				if nb[0]*n+nb[1] != center {
					a.Add(i, row(nb[0], nb[1]), -g)
				}
			}
		}
	}
	return a, b
}

// TestSolveDegenerateInputs: inputs a direct solve cannot handle fail with
// the same error class it reports, and they fail before the unit table is
// touched, so no evaluation is recorded for them.
func TestSolveDegenerateInputs(t *testing.T) {
	const n, r, cur = 9, 0.05, 2e-4
	freshUnitTable()
	before := ReadSolveStats()
	for _, c := range []struct {
		name     string
		m        Mesh
		notSPD   bool // the error must wrap mathx.ErrNotSPD
		anyError bool
	}{
		{"I NaN", Mesh{N: n, EdgeOhms: r, NodeCurrentA: math.NaN()}, true, true},
		{"I +Inf", Mesh{N: n, EdgeOhms: r, NodeCurrentA: math.Inf(1)}, true, true},
		{"I -Inf", Mesh{N: n, EdgeOhms: r, NodeCurrentA: math.Inf(-1)}, true, true},
		{"R 0", Mesh{N: n, EdgeOhms: 0, NodeCurrentA: cur}, true, true},
		{"R <0", Mesh{N: n, EdgeOhms: -r, NodeCurrentA: cur}, false, true},
		{"R NaN", Mesh{N: n, EdgeOhms: math.NaN(), NodeCurrentA: cur}, false, true},
		{"R +Inf", Mesh{N: n, EdgeOhms: math.Inf(1), NodeCurrentA: cur}, false, true},
		{"N even", Mesh{N: 10, EdgeOhms: r, NodeCurrentA: cur}, false, true},
		{"N small", Mesh{N: 3, EdgeOhms: r, NodeCurrentA: cur}, false, true},
		{"N large", Mesh{N: MaxMeshN + 2, EdgeOhms: r, NodeCurrentA: cur}, false, true},
	} {
		d, err := c.m.Solve()
		switch {
		case c.notSPD && !errors.Is(err, mathx.ErrNotSPD):
			t.Errorf("%s: Solve = (%g, %v), want an ErrNotSPD error", c.name, d, err)
		case c.anyError && err == nil:
			t.Errorf("%s: Solve = %g, want an error", c.name, d)
		}
	}
	if after := ReadSolveStats(); after != before {
		t.Errorf("rejected inputs ran a solve: %+v → %+v", before, after)
	}
	pos, err := (&Mesh{N: n, EdgeOhms: r, NodeCurrentA: cur}).Solve()
	if err != nil || !(pos > 0) {
		t.Fatalf("nominal mesh: (%g, %v)", pos, err)
	}
	if d, err := (&Mesh{N: n, EdgeOhms: r, NodeCurrentA: 0}).Solve(); err != nil || d != 0 {
		t.Errorf("I = 0: Solve = (%g, %v), want (0, nil)", d, err)
	}
	if d, err := (&Mesh{N: n, EdgeOhms: r, NodeCurrentA: -cur}).Solve(); err != nil || d != pos {
		t.Errorf("I < 0: Solve = (%g, %v), want the |I| drop %g", d, err, pos)
	}
	if d, err := (&Mesh{N: n, EdgeOhms: 1e300, NodeCurrentA: 1e300}).Solve(); err == nil {
		t.Errorf("overflowing drop: Solve = %g, want an error", d)
	}
}

// TestUnitTableConcurrentFirstUse: concurrent first solves at one size
// share a single unit-drop evaluation, and every caller gets the same bits.
func TestUnitTableConcurrentFirstUse(t *testing.T) {
	freshUnitTable()
	sizes := []int{7, 13, 25}
	const workers = 16
	drops := make([][]float64, workers)
	before := ReadSolveStats()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		drops[w] = make([]float64, len(sizes))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range sizes {
				i := (w + k) % len(sizes) // stagger so sizes are raced from all sides
				d, err := (&Mesh{N: sizes[i], EdgeOhms: 0.04, NodeCurrentA: 1.2e-4}).Solve()
				if err != nil {
					t.Error(err)
					return
				}
				drops[w][i] = d
			}
		}(w)
	}
	wg.Wait()
	// Each size needs at least one evaluation, so a total of len(sizes)
	// means exactly one each.
	if got := ReadSolveStats().Solves - before.Solves; got != uint64(len(sizes)) {
		t.Errorf("%d goroutines over %d sizes ran %d unit-drop evaluations, want %d", workers, len(sizes), got, len(sizes))
	}
	for w := 1; w < workers; w++ {
		for i := range sizes {
			if math.Float64bits(drops[w][i]) != math.Float64bits(drops[0][i]) {
				t.Errorf("n=%d: goroutine %d got %x, goroutine 0 %x", sizes[i], w,
					math.Float64bits(drops[w][i]), math.Float64bits(drops[0][i]))
			}
		}
	}
}

// BenchmarkMeshSolve compares the two ways to get φ(n): a CG solve of the
// assembled unit mesh (the test reference, O(n) iterations of an n²
// system) against the closed-form spectral sum Mesh.Solve evaluates once
// per grid size, at n = 63 and 255, and the closed form alone at the
// largest admissible size.
func BenchmarkMeshSolve(b *testing.B) {
	for _, n := range []int{63, 255, MaxMeshN} {
		if n < MaxMeshN {
			a, rhs := referenceMesh(n, 1, 1)
			b.Run(fmt.Sprintf("n=%d/CG", n), func(b *testing.B) {
				b.ReportAllocs()
				iters := 0
				for i := 0; i < b.N; i++ {
					_, it, err := a.SolveCG(rhs, 1e-10, 20*a.N)
					if err != nil {
						b.Fatal(err)
					}
					iters = it
				}
				b.ReportMetric(float64(iters), "iters")
			})
		}
		b.Run(fmt.Sprintf("n=%d/closed-form", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if phi := unitDrop(n); !(phi > 0) {
					b.Fatalf("φ(%d) = %g", n, phi)
				}
			}
		})
	}
}
