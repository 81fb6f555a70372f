package powergrid

import (
	"fmt"
	"sync"

	"nanometer/internal/mathx"
)

// meshAssembly is the conductance-independent part of the n×n pinned mesh
// system: the frozen CSR sparsity pattern (fixed by grid geometry alone)
// and the per-row edge counts needed to refill values for any edge
// conductance. One assembly per mesh dimension lives in meshAssemblies for
// the life of the process, so repeated SizeRails / PessimisticRatio sweeps
// stop re-deriving the pattern from scratch; concurrent solves share it
// read-only and draw their mutable state (values, RHS, multigrid
// hierarchy, Krylov workspace) from the per-assembly pool.
type meshAssembly struct {
	n      int
	cnt    int       // unknowns: n²−1 (center node eliminated)
	rowPtr []int32   // CSR row offsets into cols (read-only once built)
	cols   []int32   // off-diagonal columns, original assembly insertion order
	deg    []uint8   // in-range edge count per unknown row (diagonal refill)
	pool   sync.Pool // *meshSolver
}

// meshSolver is one solve's worth of mutable state bound to an assembly:
// value arrays the refill writes, the multigrid hierarchy (stateful level
// storage, so it cannot be shared across concurrent solves), and the
// Krylov workspace. Pooled so the steady state allocates nothing.
type meshSolver struct {
	vals []float64
	diag []float64
	rhs  []float64
	ws   mathx.Workspace
	mg   *mathx.MeshMG
}

var meshAssemblies sync.Map // int (grid side n) → *meshAssembly

// maxCachedAssemblies bounds the pattern cache: a pattern for side n holds
// O(n²) index data (~80 MB at the n=1023 cap), and the serving layer lets
// untrusted clients pick n, so a scan across distinct sizes must recycle
// slots instead of accumulating them. Eight slots cover the report default
// plus a realistic refinement sweep; eviction only costs the next solve at
// the evicted size a re-derivation.
const maxCachedAssemblies = 8

var assemblyEvict struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// assemblyFor returns the cached pattern for an n×n mesh, deriving it on
// first use. The derivation walks nodes exactly as the original in-line
// assembly did — neighbours in {up, down, left, right} order, out-of-range
// and pinned-center columns skipped — so the frozen rows preserve the
// historical insertion order and MulVec sums in the same order to the bit.
func assemblyFor(n int) *meshAssembly {
	if v, ok := meshAssemblies.Load(n); ok {
		return v.(*meshAssembly)
	}
	total := n * n
	center := (n/2)*n + n/2
	idx := make([]int, total) // full-grid index → unknown row (−1 at pin)
	cnt := 0
	for i := 0; i < total; i++ {
		if i == center {
			idx[i] = -1
			continue
		}
		idx[i] = cnt
		cnt++
	}
	asm := &meshAssembly{
		n:      n,
		cnt:    cnt,
		rowPtr: make([]int32, cnt+1),
		cols:   make([]int32, 0, 4*cnt),
		deg:    make([]uint8, cnt),
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			u := r*n + c
			if idx[u] < 0 {
				continue
			}
			row := idx[u]
			for _, nb := range [][2]int{{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}} {
				if nb[0] < 0 || nb[0] >= n || nb[1] < 0 || nb[1] >= n {
					continue // reflective boundary: no conductance out
				}
				asm.deg[row]++
				if v := idx[nb[0]*n+nb[1]]; v >= 0 {
					asm.cols = append(asm.cols, int32(v))
				}
				// Pinned neighbour: counts toward the diagonal, no column.
			}
			asm.rowPtr[row+1] = int32(len(asm.cols))
		}
	}
	v, loaded := meshAssemblies.LoadOrStore(n, asm) // racing builders: first in wins
	if !loaded {
		capAssemblies(n)
	}
	return v.(*meshAssembly)
}

// capAssemblies evicts arbitrary other entries until at most
// maxCachedAssemblies remain, keeping the just-inserted size. In-flight
// solves hold direct *meshAssembly references, so eviction never breaks
// them — the entry just becomes collectable once they finish.
func capAssemblies(keep int) {
	assemblyEvict.mu.Lock()
	defer assemblyEvict.mu.Unlock()
	assemblyEvict.n++
	if assemblyEvict.n <= maxCachedAssemblies {
		return
	}
	meshAssemblies.Range(func(k, _ any) bool {
		if k.(int) == keep {
			return true
		}
		meshAssemblies.Delete(k)
		assemblyEvict.n--
		return assemblyEvict.n > maxCachedAssemblies
	})
}

// solver draws pooled per-solve state, building the multigrid hierarchy on
// a pool miss. This is an acquire-helper: ownership of the pooled solver
// transfers to the caller, and Mesh.solve defers the a.pool.Put
// (TestPooledSolvesReuseWorkspace pins it through Solve and
// SolveMeshBatch).
func (a *meshAssembly) solver() (*meshSolver, error) {
	if v := a.pool.Get(); v != nil {
		return v.(*meshSolver), nil
	}
	mg, err := mathx.NewMeshMG(a.n, (a.n/2)*a.n+a.n/2)
	if err != nil {
		return nil, fmt.Errorf("powergrid: mesh multigrid: %w", err)
	}
	return &meshSolver{
		vals: make([]float64, len(a.cols)),
		diag: make([]float64, a.cnt),
		rhs:  make([]float64, a.cnt),
		mg:   mg,
	}, nil
}

// refill writes the conductance-dependent values for edge conductance g
// and per-node current draw: off-diagonals are −g, and each diagonal is
// rebuilt by the same repeated `+= g` accumulation the original assembly
// used (k ∈ {2,3,4} additions), reproducing its floating-point results
// bit for bit.
func (sv *meshSolver) refill(a *meshAssembly, g, nodeCurrentA float64) {
	for i := range sv.vals {
		sv.vals[i] = -g
	}
	for row, k := range a.deg {
		deg := 0.0
		for j := uint8(0); j < k; j++ {
			deg += g
		}
		sv.diag[row] = deg
		sv.rhs[row] = nodeCurrentA
	}
}
