package powergrid

import (
	"fmt"
	"math"
	"sync"

	"nanometer/internal/mathx"
)

// unitTable holds φ(n), the maximum drop of the unit mesh system (edge
// resistance 1 Ω, draw 1 A per node) for each odd grid side n in
// [MinMeshN, MaxMeshN], one once-cell per n. The mesh system is exactly
// linear in its two scalars: every edge has conductance g = 1/EdgeOhms and
// every node draws NodeCurrentA, so A = g·L and b = I·1 with L fixed by n
// alone, and the drops of any (R, I) mesh are |I|·R times the unit ones.
// φ is a pure function of n, so nothing ever invalidates a cell, and the
// table is bounded by construction: at most one float per admissible n.
type unitTable [(MaxMeshN-MinMeshN)/2 + 1]unitCell

type unitCell struct {
	once sync.Once
	phi  float64
	err  error
}

// unitDrops is the process-lifetime table Mesh.Solve reads.
var unitDrops unitTable

// drop returns φ(n) for an odd n in [MinMeshN, MaxMeshN] (the caller
// validates n), solving the unit system on first use. Concurrent first
// callers for one n wait on the single solve.
func (t *unitTable) drop(n int) (float64, error) {
	c := &t[(n-MinMeshN)/2]
	c.once.Do(func() {
		// A solve that panics still marks the cell done; this error keeps
		// later callers from reading φ = 0 as an answer.
		c.err = fmt.Errorf("powergrid: unit mesh solve at n = %d did not complete", n)
		phi, iters, err := solveMesh(n, 1, 1)
		if err != nil {
			c.err = err
			return
		}
		c.phi, c.err = phi, nil
		meshSolves.Add(1)
		meshSolveIters.Add(uint64(iters))
	})
	return c.phi, c.err
}

// solveMesh assembles the n×n pinned mesh with edge resistance edgeOhms
// and draw nodeCurrentA per node and runs one MG-PCG solve of it,
// returning the maximum IR drop and the iterations spent. Mesh.Solve
// reaches it only through the unit table; tests call it with real
// (R, I) as the direct reference the scaled drop must match.
func solveMesh(n int, edgeOhms, nodeCurrentA float64) (maxDropV float64, iters int, err error) {
	g := 1 / edgeOhms
	center := (n/2)*n + n/2
	cnt := n*n - 1 // unknowns: the center node is the pinned bump
	unknown := func(u int) int32 {
		if u > center {
			return int32(u - 1)
		}
		return int32(u)
	}
	rowPtr := make([]int32, cnt+1)
	cols := make([]int32, 0, 4*cnt)
	vals := make([]float64, 0, 4*cnt)
	diag := make([]float64, cnt)
	rhs := make([]float64, cnt)
	for u := 0; u < n*n; u++ {
		if u == center {
			continue
		}
		r, c, row := u/n, u%n, unknown(u)
		for _, nb := range [4][2]int{{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}} {
			if nb[0] < 0 || nb[0] >= n || nb[1] < 0 || nb[1] >= n {
				continue // reflective boundary: no conductance out
			}
			diag[row] += g
			if v := nb[0]*n + nb[1]; v != center {
				cols = append(cols, unknown(v))
				vals = append(vals, -g)
			}
			// Pinned neighbour: counts toward the diagonal, no column.
		}
		rhs[row] = nodeCurrentA
		rowPtr[row+1] = int32(len(cols))
	}
	mat, err := mathx.NewFrozenCSR(cnt, rowPtr, cols, vals, diag)
	if err != nil {
		return 0, 0, fmt.Errorf("powergrid: mesh assembly: %w", err)
	}
	mg, err := mathx.NewMeshMG(n, center)
	if err != nil {
		return 0, 0, fmt.Errorf("powergrid: mesh multigrid: %w", err)
	}
	if err := mg.SetConductance(g); err != nil {
		return 0, 0, fmt.Errorf("powergrid: mesh solve: %w", err)
	}
	// Multigrid-preconditioned CG: plain CG needs O(n) iterations on the
	// mesh Laplacian (and Jacobi buys nothing — the diagonal is
	// near-constant), while one geometric V-cycle per iteration holds the
	// count near-constant as the grid refines (BenchmarkMeshSolve; the
	// mathx iteration-count test pins ≤ 25 through n = 255).
	// Cancellation granularity is deliberately per-artifact: the runner and
	// jobs layers check ctx between computes, and a single mesh solve is
	// bounded (≤ 25 MG-CG iterations by the mathx pin) and runs once per
	// grid size, so threading ctx into the kernel would buy nothing but
	// signature churn.
	var ws mathx.Workspace
	//lint:allow ctxflow solver kernel; cancellation is per-artifact upstream
	sol, iters, err := mat.SolveMGW(&ws, mg, rhs, 1e-10, 20*cnt)
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
