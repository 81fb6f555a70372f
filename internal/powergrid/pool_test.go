// The race detector makes sync.Pool drop Puts at random on purpose, so
// pooled allocation counts mean nothing under -race.

//go:build !race

package powergrid

import "testing"

// TestPooledSolvesReuseWorkspace pins the pool discipline: every solver
// drawn from an assembly's pool goes back to it, so a warm solve reuses
// its CSR values, Krylov workspace and multigrid hierarchy. A solver that
// is not returned costs the next solve a fresh one, about 41 allocations
// at n = 41. AllocsPerRun makes one warm-up call before it counts.
func TestPooledSolvesReuseWorkspace(t *testing.T) {
	solo := &Mesh{N: 41, PitchM: 80e-6, EdgeOhms: 0.031, NodeCurrentA: 1.1e-4}
	if a := testing.AllocsPerRun(20, func() {
		if _, err := solo.Solve(); err != nil {
			t.Fatal(err)
		}
	}); a > 1 {
		t.Errorf("warm Mesh.Solve makes %v allocs, want ≤ 1 (is the pooled solver returned?)", a)
	}
	batch := sweepMeshes(2, 41)
	if a := testing.AllocsPerRun(20, func() {
		if _, err := SolveMeshBatch(batch); err != nil {
			t.Fatal(err)
		}
	}); a > 3 {
		t.Errorf("warm 2-variant SolveMeshBatch makes %v allocs, want ≤ 3 (are the pooled solvers returned?)", a)
	}
}
