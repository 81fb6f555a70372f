package powergrid

import "testing"

// TestWarmSolveAllocatesNothing: once a grid size is solved, Solve only
// scales the stored unit drop, so a warm Solve allocates nothing and a
// warm 2-variant SolveMeshBatch allocates only its result slice.
// AllocsPerRun makes one warm-up call before it counts.
func TestWarmSolveAllocatesNothing(t *testing.T) {
	solo := &Mesh{N: 41, PitchM: 80e-6, EdgeOhms: 0.031, NodeCurrentA: 1.1e-4}
	if a := testing.AllocsPerRun(20, func() {
		if _, err := solo.Solve(); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("warm Mesh.Solve makes %v allocs, want 0", a)
	}
	batch := sweepMeshes(2, 41)
	if a := testing.AllocsPerRun(20, func() {
		if _, err := SolveMeshBatch(batch); err != nil {
			t.Fatal(err)
		}
	}); a > 1 {
		t.Errorf("warm 2-variant SolveMeshBatch makes %v allocs, want ≤ 1 (the drops slice)", a)
	}
}
