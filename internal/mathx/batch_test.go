package mathx

import (
	"math"
	"testing"
)

// batchFixture builds k same-pattern mesh systems (one grid size, varied
// conductance) with per-variant RHS, plus the per-variant preconditioners
// and workspaces both the solo and batch paths need.
func batchFixture(t testing.TB, n, k int) ([]*Workspace, []*MeshMG, []*SparseMatrix, [][]float64) {
	t.Helper()
	wss := make([]*Workspace, k)
	mgs := make([]*MeshMG, k)
	mats := make([]*SparseMatrix, k)
	bs := make([][]float64, k)
	for v := 0; v < k; v++ {
		g := 1.0 + 0.15*float64(v)
		m, mg, b := buildMesh(t, n, g, int64(1000+7*v))
		if err := mg.SetConductance(g); err != nil {
			t.Fatal(err)
		}
		wss[v], mgs[v], mats[v], bs[v] = new(Workspace), mg, m, b
	}
	return wss, mgs, mats, bs
}

// TestBatchMatchesSoloBitwise is the contract the sweep fast path stands
// on: every variant of a lockstep batch produces the EXACT float bits of a
// solo SolveMGW on the same system — same solution, same iteration count —
// regardless of who shares the batch. (These matrices are built
// independently, so this also exercises samePattern's content-comparison
// fallback rather than the shared-backing fast path.)
func TestBatchMatchesSoloBitwise(t *testing.T) {
	for _, n := range []int{15, 31, 63} {
		const k = 3
		cnt := n*n - 1
		solo := make([][]float64, k)
		soloIters := make([]int, k)
		wss, mgs, mats, bs := batchFixture(t, n, k)
		for v := 0; v < k; v++ {
			x, iters, err := mats[v].SolveMGW(wss[v], mgs[v], bs[v], 1e-10, 20*cnt)
			if err != nil {
				t.Fatalf("n=%d solo %d: %v", n, v, err)
			}
			solo[v] = append([]float64(nil), x...)
			soloIters[v] = iters
		}
		// Fresh state for the batch: MeshMG and workspaces are stateful.
		wss, mgs, mats, bs = batchFixture(t, n, k)
		xs, iters, errs := SolveMGBatchW(wss, mgs, mats, bs, 1e-10, 20*cnt)
		for v := 0; v < k; v++ {
			if errs[v] != nil {
				t.Fatalf("n=%d batch %d: %v", n, v, errs[v])
			}
			if iters[v] != soloIters[v] {
				t.Errorf("n=%d variant %d: batch %d iterations, solo %d", n, v, iters[v], soloIters[v])
			}
			for i := range xs[v] {
				if math.Float64bits(xs[v][i]) != math.Float64bits(solo[v][i]) {
					t.Fatalf("n=%d variant %d: batch diverges from solo at %d: %x vs %x",
						n, v, i, math.Float64bits(xs[v][i]), math.Float64bits(solo[v][i]))
				}
			}
		}
		// A singleton batch must match too — batch composition (k=1 vs
		// k=3) must never leak into any variant's bits.
		wss, mgs, mats, bs = batchFixture(t, n, k)
		xs1, it1, errs1 := SolveMGBatchW(wss[:1], mgs[:1], mats[:1], bs[:1], 1e-10, 20*cnt)
		if errs1[0] != nil {
			t.Fatalf("n=%d singleton batch: %v", n, errs1[0])
		}
		if it1[0] != soloIters[0] {
			t.Errorf("n=%d singleton batch: %d iterations, solo %d", n, it1[0], soloIters[0])
		}
		for i := range xs1[0] {
			if math.Float64bits(xs1[0][i]) != math.Float64bits(solo[0][i]) {
				t.Fatalf("n=%d singleton batch diverges from solo at %d", n, i)
			}
		}
	}
}

// TestBatchValidation pins the fail-the-whole-batch semantics for shape
// violations, which is what lets callers treat any batch error as "fall
// back to solo solves".
func TestBatchValidation(t *testing.T) {
	wss, mgs, mats, bs := batchFixture(t, 15, 2)
	_, _, errs := SolveMGBatchW(wss[:1], mgs, mats, bs, 1e-10, 100)
	for v, e := range errs {
		if e == nil {
			t.Errorf("length mismatch: variant %d did not fail", v)
		}
	}
	// Different grid sizes → different N → every variant fails.
	wss2, mgs2, mats2, bs2 := batchFixture(t, 17, 1)
	_, _, errs = SolveMGBatchW(
		[]*Workspace{wss[0], wss2[0]},
		[]*MeshMG{mgs[0], mgs2[0]},
		[]*SparseMatrix{mats[0], mats2[0]},
		[][]float64{bs[0], bs2[0]}, 1e-10, 100)
	for v, e := range errs {
		if e == nil {
			t.Errorf("size mismatch: variant %d did not fail", v)
		}
	}
	// Unfrozen matrix rejected.
	un := NewSparseMatrix(mats[0].N)
	for r := 0; r < un.N; r++ {
		un.Add(r, r, 4)
	}
	_, _, errs = SolveMGBatchW(wss[:1], mgs[:1], []*SparseMatrix{un}, bs[:1], 1e-10, 100)
	if errs[0] == nil {
		t.Error("unfrozen matrix was not rejected")
	}
	// Empty batch is a no-op, not an error.
	xs, iters, errs := SolveMGBatchW(nil, nil, nil, nil, 1e-10, 100)
	if len(xs) != 0 || len(iters) != 0 || len(errs) != 0 {
		t.Error("empty batch returned non-empty results")
	}
}

// TestBatchZeroRHS: a zero right-hand side converges in zero iterations
// with a zero solution, exactly like solo.
func TestBatchZeroRHS(t *testing.T) {
	wss, mgs, mats, bs := batchFixture(t, 15, 2)
	bs[1] = make([]float64, mats[1].N)
	xs, iters, errs := SolveMGBatchW(wss, mgs, mats, bs, 1e-10, 100)
	if errs[1] != nil || iters[1] != 0 {
		t.Fatalf("zero-RHS variant: iters=%d err=%v", iters[1], errs[1])
	}
	for i, v := range xs[1] {
		if v != 0 {
			t.Fatalf("zero-RHS variant has nonzero solution at %d: %g", i, v)
		}
	}
	if errs[0] != nil || iters[0] == 0 {
		t.Fatalf("live variant beside a zero-RHS one: iters=%d err=%v", iters[0], errs[0])
	}
}
