package powergrid

import (
	"errors"
	"math"
	"testing"

	"nanometer/internal/mathx"
)

// sweepMeshes builds k same-grid meshes with conductance and draw varied
// the way a scenario sweep varies them (±10% around nominal).
func sweepMeshes(k, n int) []*Mesh {
	meshes := make([]*Mesh, k)
	for i := range meshes {
		f := 0.9 + 0.2*float64(i)/float64(max(k-1, 1))
		meshes[i] = &Mesh{
			N:            n,
			PitchM:       80e-6,
			EdgeOhms:     0.04 * f,
			NodeCurrentA: 1.2e-4 / f,
		}
	}
	return meshes
}

// TestSolveMeshBatchMatchesSolo pins what sweep priming relies on:
// batched drops carry the exact float bits of solo solves, so routing a
// sweep through priming can never change what any variant reports.
func TestSolveMeshBatchMatchesSolo(t *testing.T) {
	if drops, err := SolveMeshBatch(nil); err != nil || drops != nil {
		t.Fatalf("empty batch: drops=%v err=%v", drops, err)
	}
	meshes := sweepMeshes(5, 41)
	before := ReadSolveStats()
	drops, err := SolveMeshBatch(meshes)
	if err != nil {
		t.Fatal(err)
	}
	after := ReadSolveStats()
	if got := after.Batched - before.Batched; got != 5 {
		t.Errorf("batched counter moved by %d, want 5", got)
	}
	if got := after.Solves - before.Solves; got != 5 {
		t.Errorf("solves counter moved by %d, want 5 (batch variants are solves)", got)
	}
	for i, m := range meshes {
		solo, err := m.Solve()
		if err != nil {
			t.Fatalf("solo %d: %v", i, err)
		}
		if math.Float64bits(solo) != math.Float64bits(drops[i]) {
			t.Fatalf("variant %d: batch drop %x, solo drop %x — bit-identity broken",
				i, math.Float64bits(drops[i]), math.Float64bits(solo))
		}
	}
}

// TestPrimeSolvesParksNothingOnError pins priming's failure contract: a
// solver error anywhere in the sweep parks nothing, not even the drops of
// the meshes solved before it. Each good mesh's later Solve is then a
// real solo solve with the solo bits, and the bad mesh's Solve reports
// the solver's own error where it can be attributed.
func TestPrimeSolvesParksNothingOnError(t *testing.T) {
	meshes := sweepMeshes(3, 41)
	meshes[2].EdgeOhms = 0
	refs := make([]float64, 2)
	for i, m := range meshes[:2] {
		cp := *m
		d, err := cp.Solve()
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = d
	}
	PrimeSolves(meshes)
	for i, m := range meshes[:2] {
		before := ReadSolveStats()
		d, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if got := ReadSolveStats().Solves - before.Solves; got != 1 {
			t.Errorf("mesh %d: Solve after failed priming recorded %d solves, want 1 (nothing parked)", i, got)
		}
		if math.Float64bits(d) != math.Float64bits(refs[i]) {
			t.Errorf("mesh %d: drop %x after failed priming, solo drop %x",
				i, math.Float64bits(d), math.Float64bits(refs[i]))
		}
	}
	if d, err := meshes[2].Solve(); !errors.Is(err, mathx.ErrNotSPD) {
		t.Errorf("bad mesh Solve after priming = (%g, %v), want an ErrNotSPD error", d, err)
	}
}

// TestPrimeSolvesFeedsSolve checks the park-and-consume contract: a primed
// mesh's Solve returns the parked (bit-identical) drop without recording a
// second solve, duplicate parameter sets solve once but feed (and count)
// one consumer each, and drained entries fall back to solo solving.
func TestPrimeSolvesFeedsSolve(t *testing.T) {
	meshes := sweepMeshes(3, 41)
	// Reference drops from plain solo solves on copies.
	refs := make([]float64, len(meshes))
	for i, m := range meshes {
		cp := *m
		d, err := cp.Solve()
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = d
	}
	withDup := append(append([]*Mesh{}, meshes...), meshes[1]) // duplicate params
	before := ReadSolveStats()
	PrimeSolves(withDup)
	primed := ReadSolveStats()
	if got := primed.Solves - before.Solves; got != 4 {
		t.Errorf("priming recorded %d solves, want 4 (one per requested variant, duplicates included)", got)
	}
	for i, m := range meshes {
		d, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(d) != math.Float64bits(refs[i]) {
			t.Fatalf("variant %d: primed drop differs from solo bits", i)
		}
	}
	// The duplicated parameter set owes one more consumer.
	if _, err := meshes[1].Solve(); err != nil {
		t.Fatal(err)
	}
	consumed := ReadSolveStats()
	if got := consumed.Solves - primed.Solves; got != 0 {
		t.Errorf("consuming primed drops recorded %d extra solves, want 0", got)
	}
	// Entries are drained: the same meshes now solve solo again.
	if _, err := meshes[0].Solve(); err != nil {
		t.Fatal(err)
	}
	reSolved := ReadSolveStats()
	if got := reSolved.Solves - consumed.Solves; got != 1 {
		t.Errorf("re-solve after drain recorded %d solves, want 1", got)
	}
}

// TestPrimeSolvesSingleRequestNoop: one requested solve has nobody to
// share with, so priming must not run (the solo path's singleflight and
// telemetry own that solve). Two requests of the SAME parameters, by
// contrast, do share: one real solve feeds both consumers while the
// counters still see one solve per request.
func TestPrimeSolvesSingleRequestNoop(t *testing.T) {
	meshes := sweepMeshes(1, 41)
	before := ReadSolveStats()
	PrimeSolves(meshes[:1])
	after := ReadSolveStats()
	if got := after.Solves - before.Solves; got != 0 {
		t.Errorf("single-request priming recorded %d solves, want 0", got)
	}
	PrimeSolves([]*Mesh{meshes[0], meshes[0]})
	shared := ReadSolveStats()
	if got := shared.Solves - after.Solves; got != 2 {
		t.Errorf("identical-pair priming recorded %d solves, want 2", got)
	}
	if got := shared.Batched - after.Batched; got != 2 {
		t.Errorf("identical-pair priming batched %d, want 2", got)
	}
	for i := 0; i < 2; i++ {
		if _, err := meshes[0].Solve(); err != nil {
			t.Fatal(err)
		}
	}
	drained := ReadSolveStats()
	if got := drained.Solves - shared.Solves; got != 0 {
		t.Errorf("consuming the shared pair recorded %d extra solves, want 0", got)
	}
}
