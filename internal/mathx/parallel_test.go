package mathx

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs f under a forced GOMAXPROCS, restoring the ambient value.
// Combined with the -cpu 1,2,8 matrix CI runs, this lets one process
// compare the serial and parallel executions of every gated kernel
// directly: parallelOK flips on GOMAXPROCS, so procs=1 forces the serial
// path and procs=8 the split one even on a single-core machine.
func withProcs(procs int, f func()) {
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	f()
}

// randSparse builds a deterministic frozen sparse matrix of size n with a
// mesh-like profile (dominant diagonal, ≤ 4 off-diagonals per row).
func randSparse(n int, seed int64) (*SparseMatrix, []float64) {
	rng := rand.New(rand.NewSource(seed))
	m := NewSparseMatrix(n)
	x := make([]float64, n)
	for r := 0; r < n; r++ {
		x[r] = rng.NormFloat64()
		m.Add(r, r, 4+rng.Float64())
		for j := 0; j < 4; j++ {
			c := rng.Intn(n)
			if c != r {
				m.Add(r, c, -rng.Float64())
			}
		}
	}
	m.Freeze()
	return m, x
}

// TestMulVecParallelBitIdentical sweeps the SpMV size across the parallel
// cutoff (below, at, and above, plus a 255-grid-sized system) and checks
// the split execution returns the exact bits of the serial one. The block
// boundaries depend only on n and GOMAXPROCS and rows never reduce across
// blocks, so any difference is a real contract break, not float noise.
func TestMulVecParallelBitIdentical(t *testing.T) {
	for _, n := range []int{64, parCutoff - 1, parCutoff, parCutoff + 1, 255*255 - 1} {
		m, x := randSparse(n, int64(n))
		serial := make([]float64, n)
		par := make([]float64, n)
		withProcs(1, func() { m.MulVec(x, serial) })
		withProcs(8, func() { m.MulVec(x, par) })
		for i := range serial {
			if math.Float64bits(serial[i]) != math.Float64bits(par[i]) {
				t.Fatalf("n=%d: MulVec parallel diverges at %d: %x vs %x",
					n, i, math.Float64bits(par[i]), math.Float64bits(serial[i]))
			}
		}
	}
}

// TestSolveParallelBitIdentical runs the full MG-PCG solve — FMG start,
// V-cycle smoothers, transfers, axpy sweeps, SpMV — at GOMAXPROCS
// 1 vs 8 and demands bit-identical solutions and iteration counts, for
// grid sizes spanning the parallel cutoff (129² is the first grid whose
// kernels split; 255² is the production heavy size).
func TestSolveParallelBitIdentical(t *testing.T) {
	for _, n := range []int{63, 129, 255} {
		cnt := n*n - 1
		var serial, par []float64
		var serialIters, parIters int
		withProcs(1, func() {
			m, mg, b := buildMesh(t, n, 2.0, int64(n))
			var ws Workspace
			x, iters, err := m.SolveMGW(&ws, mg, b, 1e-10, 20*cnt)
			if err != nil {
				t.Fatalf("n=%d serial: %v", n, err)
			}
			serial = append([]float64(nil), x...)
			serialIters = iters
		})
		withProcs(8, func() {
			m, mg, b := buildMesh(t, n, 2.0, int64(n))
			var ws Workspace
			x, iters, err := m.SolveMGW(&ws, mg, b, 1e-10, 20*cnt)
			if err != nil {
				t.Fatalf("n=%d parallel: %v", n, err)
			}
			par = append([]float64(nil), x...)
			parIters = iters
		})
		if serialIters != parIters {
			t.Errorf("n=%d: %d iterations serial, %d parallel", n, serialIters, parIters)
		}
		for i := range serial {
			if math.Float64bits(serial[i]) != math.Float64bits(par[i]) {
				t.Fatalf("n=%d: solve diverges at %d under GOMAXPROCS", n, i)
			}
		}
	}
}

// TestParForBlocksCoversRange checks the unconditionally-splitting variant
// visits every index exactly once for sizes around the P boundary —
// including n < P, where chunks degenerate to single elements.
func TestParForBlocksCoversRange(t *testing.T) {
	for _, procs := range []int{1, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 8, 9, 100} {
			withProcs(procs, func() {
				marks := make([]int32, n)
				parForBlocks(n, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&marks[i], 1)
					}
				})
				for i, c := range marks {
					if c != 1 {
						t.Fatalf("procs=%d n=%d: index %d visited %d times", procs, n, i, c)
					}
				}
			})
		}
	}
}

// TestParForBlocksWaitsForItsGoroutines: a split over n ≥ parCutoff at
// GOMAXPROCS 4 returns only after every block has finished, and leaves no
// goroutine behind.
func TestParForBlocksWaitsForItsGoroutines(t *testing.T) {
	withProcs(4, func() {
		baseline := runtime.NumGoroutine()
		var started atomic.Int32
		hold, returned := make(chan struct{}), make(chan struct{})
		go func() {
			parForBlocks(parCutoff, func(lo, hi int) {
				started.Add(1)
				<-hold
			})
			close(returned)
		}()
		for started.Load() < 4 {
			time.Sleep(time.Millisecond)
		}
		select {
		case <-returned:
			t.Fatal("parForBlocks returned while its blocks were still running")
		case <-time.After(20 * time.Millisecond):
		}
		close(hold)
		select {
		case <-returned:
		case <-time.After(10 * time.Second):
			t.Fatal("parForBlocks did not return after its blocks finished")
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after parForBlocks, baseline %d", runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
