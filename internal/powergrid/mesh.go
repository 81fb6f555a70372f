package powergrid

import (
	"fmt"
	"math"

	"nanometer/internal/mathx"
)

// Mesh is a 2-D resistive power-grid model of one bump cell: an n×n node
// mesh spanning the bump pitch, rails of the sized width in both routing
// directions, uniform (hot-spot) current draw per node, and the bump as the
// voltage source in the center. It validates the 1-D analytic strip model
// (which should be conservative, since it ignores 2-D current spreading).
type Mesh struct {
	// N is the mesh dimension (nodes per side, odd so a center node
	// exists).
	N int
	// PitchM is the cell span (the bump pitch).
	PitchM float64
	// EdgeOhms is the resistance of one mesh edge.
	EdgeOhms float64
	// NodeCurrentA is the draw per mesh node.
	NodeCurrentA float64
}

// Mesh dimension limits, enforced here (not just at the CLI/HTTP
// boundaries) because the serving layer exposes the dimension to untrusted
// query strings: MinMeshN is the smallest grid that still has an interior
// ring around the pinned center bump, and MaxMeshN caps the unknown count
// (n²−1 ≈ 10⁶ at 1023) so one request cannot allocate unbounded solver and
// multigrid state.
const (
	MinMeshN = 5
	MaxMeshN = 1023
)

// NewMesh discretizes a grid spec with rails of width railWidthM at rail
// pitch railPitchM into an n×n mesh (n forced odd so a center bump node
// exists; n outside [MinMeshN, MaxMeshN] is rejected rather than clamped,
// so nonsense like a negative dimension fails loudly at the model layer
// even if a caller skipped boundary validation).
func NewMesh(s GridSpec, railWidthM, railPitchM float64, n int) (*Mesh, error) {
	if n < MinMeshN {
		return nil, fmt.Errorf("powergrid: mesh dimension %d too small (min %d)", n, MinMeshN)
	}
	if n%2 == 0 {
		n++
	}
	if n > MaxMeshN {
		return nil, fmt.Errorf("powergrid: mesh dimension %d too large (max %d)", n, MaxMeshN)
	}
	if railWidthM <= 0 || railPitchM <= 0 {
		return nil, fmt.Errorf("powergrid: non-positive rail geometry (w=%g, p=%g)", railWidthM, railPitchM)
	}
	seg := s.BumpPitchM / float64(n-1)
	// Equivalent sheet: rails of width W at pitch p give an effective
	// sheet resistance of ρs·p/W; a mesh edge spans one square of it.
	rEdge := s.Node.TopMetalSheetOhms() * railPitchM / railWidthM
	j := s.currentDensity()
	return &Mesh{
		N:            n,
		PitchM:       s.BumpPitchM,
		EdgeOhms:     rEdge,
		NodeCurrentA: j * seg * seg,
	}, nil
}

// Solve computes the node drops with the center node pinned at 0 V and
// reflective (Neumann) cell boundaries, returning the maximum IR drop on
// the net. The same drop occurs on the ground net, so the supply-loop drop
// is twice the returned value.
func (m *Mesh) Solve() (maxDropV float64, err error) {
	// A sweep may have primed this exact system already (PrimeSolves);
	// the parked drop is bit-identical to what the solve below would
	// produce, and its telemetry was recorded at prime time.
	if d, ok := consumePrimed(m); ok {
		return d, nil
	}
	drop, iters, err := m.solve()
	if err != nil {
		return 0, err
	}
	recordSolve(iters)
	return drop, nil
}

// solve runs one pooled MG-PCG solve of the mesh and returns its maximum
// IR drop with the iterations spent. It records no telemetry: Solve and
// SolveMeshBatch each account the solve on their own counter.
func (m *Mesh) solve() (maxDropV float64, iters int, err error) {
	// The sparsity pattern depends only on the grid dimension; the cached
	// assembly is refilled for this mesh's conductance and wrapped as a
	// frozen CSR without copying (assemblyFor documents the bit-identity
	// contract with the original in-line assembly).
	asm := assemblyFor(m.N)
	sv, err := asm.solver()
	if err != nil {
		return 0, 0, err
	}
	defer asm.pool.Put(sv)
	g := 1 / m.EdgeOhms
	sv.refill(asm, g, m.NodeCurrentA)
	mat, err := mathx.NewFrozenCSR(asm.cnt, asm.rowPtr, asm.cols, sv.vals, sv.diag)
	if err != nil {
		return 0, 0, fmt.Errorf("powergrid: mesh assembly: %w", err)
	}
	if err := sv.mg.SetConductance(g); err != nil {
		return 0, 0, fmt.Errorf("powergrid: mesh solve: %w", err)
	}
	// Multigrid-preconditioned CG: plain CG needs O(n) iterations on the
	// mesh Laplacian (and Jacobi buys nothing — the diagonal is
	// near-constant), while one geometric V-cycle per iteration holds the
	// count near-constant as the grid refines (BenchmarkMeshSolve; the
	// mathx iteration-count test pins ≤ 25 through n = 255). The solution
	// aliases the pooled workspace, so the max-drop reduction below must
	// happen before the solver is pooled.
	// Cancellation granularity is deliberately per-artifact: the runner and
	// jobs layers check ctx between computes, and a single mesh solve is
	// bounded (≤ 25 MG-CG iterations by the mathx pin), so threading ctx
	// into the kernel would buy nothing but signature churn.
	//lint:allow ctxflow solver kernel; cancellation is per-artifact upstream
	sol, iters, err := mat.SolveMGW(&sv.ws, sv.mg, sv.rhs, 1e-10, 20*asm.cnt)
	if err != nil {
		return 0, 0, fmt.Errorf("powergrid: mesh solve: %w", err)
	}
	for _, v := range sol {
		// Drops are positive (current flows into the pinned bump).
		if d := math.Abs(v); d > maxDropV {
			maxDropV = d
		}
	}
	return maxDropV, iters, nil
}

// PessimisticRatio solves the 2-D smeared mesh for a sized grid and returns
// mesh-loop-drop / top-metal-budget. The mesh routes *all* current —
// including the share the designer's lower grid would normally carry
// sideways — through the top-level sheet, so ratios well above 1 quantify
// how much the analytic model leans on a healthy lower grid.
func PessimisticRatio(s GridSpec, n int) (ratio float64, err error) {
	mesh, err := PessimisticMesh(s, n)
	if err != nil {
		return 0, err
	}
	drop, err := mesh.Solve()
	if err != nil {
		return 0, err
	}
	return 2 * drop / s.topBudgetV(), nil
}

// PessimisticMesh builds (without solving) the mesh PessimisticRatio
// solves: the sized grid's top-level sheet carrying all current. Split out
// so sweep priming can collect the meshes of many scenario variants and
// solve each distinct one before each variant's PessimisticRatio consumes
// its primed result.
func PessimisticMesh(s GridSpec, n int) (*Mesh, error) {
	sz, err := s.SizeRails()
	if err != nil {
		return nil, err
	}
	return NewMesh(s, sz.RailWidthM, s.BumpPitchM, n)
}

// Ladder is the 1-D discretization of one rail span between two bumps: n
// segments with the strip current tapped uniformly along the span and both
// ends pinned — the exact structure the analytic sizing integrates.
type Ladder struct {
	// N is the number of segments.
	N int
	// SegOhms is the per-segment rail resistance; TapCurrentA the draw per
	// interior node.
	SegOhms, TapCurrentA float64
}

// NewLadder discretizes a sized rail span.
func NewLadder(s GridSpec, railWidthM float64, n int) (*Ladder, error) {
	if n < 4 {
		n = 4
	}
	if railWidthM <= 0 {
		return nil, fmt.Errorf("powergrid: non-positive rail width %g", railWidthM)
	}
	seg := s.BumpPitchM / float64(n)
	return &Ladder{
		N:           n,
		SegOhms:     s.Node.TopMetalSheetOhms() * seg / railWidthM,
		TapCurrentA: s.currentDensity() * s.BumpPitchM * seg,
	}, nil
}

// Solve returns the peak drop along the span (both ends grounded).
func (l *Ladder) Solve() (float64, error) {
	// Interior nodes 1..N-1; tridiagonal system solved directly.
	n := l.N - 1
	if n < 1 {
		return 0, fmt.Errorf("powergrid: ladder too short")
	}
	g := 1 / l.SegOhms
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n)
		a[i][i] = 2 * g
		if i > 0 {
			a[i][i-1] = -g
		}
		if i < n-1 {
			a[i][i+1] = -g
		}
		b[i] = l.TapCurrentA
	}
	// Tridiagonal n≤1024 system solved in microseconds; see Mesh.Solve for
	// the per-artifact cancellation-granularity decision.
	//lint:allow ctxflow bounded analytic ladder solve; cancel is upstream
	v, err := mathx.SolveDense(a, b)
	if err != nil {
		return 0, err
	}
	peak := 0.0
	for _, x := range v {
		if x > peak {
			peak = x
		}
	}
	return peak, nil
}

// ValidateAnalytic solves the 1-D ladder for a sized grid and returns the
// ratio ladder-loop-drop / top-metal-budget. Values ≈ 1 (from below as the
// discretization refines) confirm the closed-form sizing.
func ValidateAnalytic(s GridSpec, n int) (ratio float64, err error) {
	sz, err := s.SizeRails()
	if err != nil {
		return 0, err
	}
	lad, err := NewLadder(s, sz.RailWidthM, n)
	if err != nil {
		return 0, err
	}
	drop, err := lad.Solve()
	if err != nil {
		return 0, err
	}
	return 2 * drop / s.topBudgetV(), nil
}
