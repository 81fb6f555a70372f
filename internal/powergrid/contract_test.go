package powergrid

import (
	"errors"
	"math"
	"strings"
	"testing"

	"nanometer/internal/mathx"
)

// TestSolveErrorsReachCaller pins the solver error contract at each call
// site: a system the solver cannot handle fails the solve with the
// solver's own error instead of returning a drop computed from garbage.
// A zero edge resistance makes the mesh conductance infinite, which a
// direct CG solve reports as not positive definite; an infinite ladder
// segment resistance leaves the ladder system singular.
func TestSolveErrorsReachCaller(t *testing.T) {
	short := &Mesh{N: 41, PitchM: 80e-6, EdgeOhms: 0, NodeCurrentA: 1.2e-4}
	if d, err := short.Solve(); !errors.Is(err, mathx.ErrNotSPD) {
		t.Errorf("Mesh.Solve with EdgeOhms 0 = (%g, %v), want an ErrNotSPD error", d, err)
	}
	meshes := sweepMeshes(2, 41)
	meshes[1].EdgeOhms = 0
	if drops, err := SolveMeshBatch(meshes); !errors.Is(err, mathx.ErrNotSPD) {
		t.Errorf("SolveMeshBatch with a zero-resistance variant = (%v, %v), want an ErrNotSPD error", drops, err)
	}
	open := &Ladder{N: 16, SegOhms: math.Inf(1), TapCurrentA: 1e-3}
	if d, err := open.Solve(); err == nil || !strings.Contains(err.Error(), "singular matrix") {
		t.Errorf("Ladder.Solve with infinite segments = (%g, %v), want a singular-matrix error", d, err)
	}
}

// TestSolveRecordsIterations: the first solve at a grid size records
// exactly one unit-drop evaluation and no iterations (φ is a closed form,
// so Iterations and Batched stay 0), and a second mesh of the same size,
// at another R and I, evaluates nothing.
func TestSolveRecordsIterations(t *testing.T) {
	freshUnitTable()
	m := &Mesh{N: 41, PitchM: 80e-6, EdgeOhms: 0.029, NodeCurrentA: 1.3e-4}
	before := ReadSolveStats()
	if _, err := m.Solve(); err != nil {
		t.Fatal(err)
	}
	after := ReadSolveStats()
	if got := after.Solves - before.Solves; got != 1 {
		t.Errorf("Solves moved by %d, want 1", got)
	}
	if after.Iterations != 0 || after.Batched != 0 {
		t.Errorf("Iterations = %d, Batched = %d, want both 0", after.Iterations, after.Batched)
	}
	again := &Mesh{N: 41, PitchM: 80e-6, EdgeOhms: 0.035, NodeCurrentA: 1.1e-4}
	if _, err := again.Solve(); err != nil {
		t.Fatal(err)
	}
	if got := ReadSolveStats(); got != after {
		t.Errorf("a second mesh at n = 41 moved the counters: %+v → %+v", after, got)
	}
}
