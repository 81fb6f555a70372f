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
// A zero edge resistance makes the mesh conductance infinite, which the
// MG-PCG kernels report as not positive definite; an infinite ladder
// segment resistance leaves the dense system singular.
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

// TestSolveRecordsIterations: the first solve at a grid size accounts
// exactly one solve and the MG-PCG iterations it spent, so the
// iterations/solve health ratio on /metrics sees iteration creep. The
// iteration count is near-constant in n, at most 25 through n = 255. A
// second mesh of the same size, at another R and I, solves nothing.
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
	if got := after.Iterations - before.Iterations; got < 1 || got > 25 {
		t.Errorf("Iterations moved by %d, want 1..25", got)
	}
	again := &Mesh{N: 41, PitchM: 80e-6, EdgeOhms: 0.035, NodeCurrentA: 1.1e-4}
	if _, err := again.Solve(); err != nil {
		t.Fatal(err)
	}
	if got := ReadSolveStats(); got != after {
		t.Errorf("a second mesh at n = 41 moved the counters: %+v → %+v", after, got)
	}
}
