package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// TestSmoothersAgreeWithCG checks the Chebyshev-smoothed V-cycle drives
// MG-PCG to the CG answer, and that the stationary V-cycle iteration
// converges on its own (a diverging smoother shows up here long before it
// corrupts MG-PCG, which can limp through a weak preconditioner).
func TestSmoothersAgreeWithCG(t *testing.T) {
	for _, n := range []int{15, 31, 63} {
		m, mg, b := buildMesh(t, n, 2.5, int64(100+n))
		cnt := m.N
		ref, _, err := m.SolveCG(b, 1e-12, 20*cnt)
		if err != nil {
			t.Fatalf("n=%d: CG: %v", n, err)
		}
		var ws Workspace
		x, iters, err := m.SolveMGW(&ws, mg, b, 1e-11, 20*cnt)
		if err != nil {
			t.Fatalf("n=%d: MG-PCG: %v", n, err)
		}
		if iters <= 0 || iters > 30 {
			t.Errorf("n=%d: MG-PCG took %d iterations", n, iters)
		}
		assertClose(t, x, ref, 1e-9)
		// Stationary tolerance stays off the double-precision floor.
		xs, sIters, err := m.SolveMG(mg, b, 1e-9, 300)
		if err != nil {
			t.Fatalf("n=%d: stationary MG: %v", n, err)
		}
		if sIters > 150 {
			t.Errorf("n=%d: stationary MG took %d iterations", n, sIters)
		}
		assertClose(t, xs, ref, 1e-7)
	}
}

func assertClose(t *testing.T, got, want []float64, tol float64) {
	t.Helper()
	scale := 0.0
	for _, v := range want {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > tol*scale {
			t.Fatalf("solution diverges at %d: got %g want %g (|Δ|=%g, tol %g)", i, got[i], want[i], d, tol*scale)
		}
	}
}

// TestVCycleIsSymmetric verifies ⟨u, M·v⟩ = ⟨v, M·u⟩ for the V-cycle —
// the A-adjoint pre/post pairing that makes the preconditioner CG-safe. A
// broken pairing fails this long before it visibly stalls MG-PCG.
func TestVCycleIsSymmetric(t *testing.T) {
	const n = 31
	_, mg, _ := buildMesh(t, n, 1.75, 7)
	cnt := n*n - 1
	rng := rand.New(rand.NewSource(11))
	u := make([]float64, cnt)
	v := make([]float64, cnt)
	for i := range u {
		u[i] = rng.NormFloat64()
		v[i] = rng.NormFloat64()
	}
	mu := make([]float64, cnt)
	mv := make([]float64, cnt)
	mg.Apply(u, mu)
	mg.Apply(v, mv)
	uMv, vMu, norm := 0.0, 0.0, 0.0
	for i := range u {
		uMv += u[i] * mv[i]
		vMu += v[i] * mu[i]
		norm += math.Abs(u[i]*mv[i]) + math.Abs(v[i]*mu[i])
	}
	if d := math.Abs(uMv - vMu); d > 1e-12*norm {
		t.Errorf("V-cycle not symmetric: ⟨u,Mv⟩=%g ⟨v,Mu⟩=%g (|Δ|=%g)", uMv, vMu, d)
	}
}

// TestFMGStartQuality checks the interpolated guess is genuinely close in
// SOLUTION norm — the norm CG progress is paid in. (Its ℓ2 residual can
// exceed ‖b‖ for a white-noise RHS like this one: the leftover error is
// high-frequency-rich and A amplifies exactly those modes, so asserting on
// the residual would reject a perfectly good start.)
func TestFMGStartQuality(t *testing.T) {
	const n = 63
	m, mg, b := buildMesh(t, n, 1.0, 5)
	x := make([]float64, m.N)
	mg.FMGStart(b, x)
	var ws Workspace
	ref, _, err := m.SolveMGW(&ws, mg, b, 1e-12, 20*m.N)
	if err != nil {
		t.Fatal(err)
	}
	ee, xx := 0.0, 0.0
	for i := range ref {
		d := x[i] - ref[i]
		ee += d * d
		xx += ref[i] * ref[i]
	}
	if rel := math.Sqrt(ee / xx); rel > 0.35 {
		t.Errorf("FMG start is %.3g of the solution away from it — interpolated guess is not close", rel)
	}
}
