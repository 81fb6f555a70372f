package powergrid

import (
	"errors"
	"fmt"
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

// freshUnitTable empties the process-wide unit table, so a test can count
// the evaluations its own calls trigger (the table is otherwise warm from
// earlier tests, and from earlier runs under -count or a -cpu list).
func freshUnitTable() { unitDrops = unitTable{} }

// TestSolveMeshBatchMatchesSolo: the batch shim is a loop of Solve, so
// every drop carries the exact bits of the solo call, and 5 variants of
// one grid size run one unit-drop evaluation.
func TestSolveMeshBatchMatchesSolo(t *testing.T) {
	if drops, err := SolveMeshBatch(nil); err != nil || drops != nil {
		t.Fatalf("empty batch: drops=%v err=%v", drops, err)
	}
	freshUnitTable()
	meshes := sweepMeshes(5, 41)
	before := ReadSolveStats()
	drops, err := SolveMeshBatch(meshes)
	if err != nil {
		t.Fatal(err)
	}
	after := ReadSolveStats()
	if got := after.Solves - before.Solves; got != 1 {
		t.Errorf("solves counter moved by %d, want 1 (one evaluation per grid size)", got)
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
	if got := ReadSolveStats().Solves - after.Solves; got != 0 {
		t.Errorf("solo solves after the batch ran %d more evaluations, want 0", got)
	}
}

// TestPrimeSolvesParksNothingOnError: priming keeps only unit drops, never
// a per-mesh result, so a bad variant among the primed meshes changes
// nothing for the others. Each good mesh's Solve returns the bits it
// returns without priming, and the bad mesh's Solve reports ErrNotSPD.
func TestPrimeSolvesParksNothingOnError(t *testing.T) {
	meshes := sweepMeshes(3, 41)
	meshes[2].EdgeOhms = 0
	refs := make([]float64, 2)
	for i, m := range meshes[:2] {
		d, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = d
	}
	freshUnitTable()
	PrimeSolves(meshes)
	for i, m := range meshes[:2] {
		d, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(d) != math.Float64bits(refs[i]) {
			t.Errorf("mesh %d: drop %x after priming, unprimed drop %x",
				i, math.Float64bits(d), math.Float64bits(refs[i]))
		}
	}
	if d, err := meshes[2].Solve(); !errors.Is(err, mathx.ErrNotSPD) {
		t.Errorf("bad mesh Solve after priming = (%g, %v), want an ErrNotSPD error", d, err)
	}
}

// TestPrimeSolvesFeedsSolve: priming evaluates each distinct grid size
// once, duplicates and other-(R, I) variants included, and the primed
// meshes' Solve calls then evaluate nothing and return |I|·R·φ(n): the
// stored φ's exact bits, within 1e-12 of a CG solve of the assembled unit
// mesh.
func TestPrimeSolvesFeedsSolve(t *testing.T) {
	freshUnitTable()
	meshes := append(sweepMeshes(3, 41), sweepMeshes(2, 21)...)
	withDup := append(append([]*Mesh{}, meshes...), meshes[1])
	before := ReadSolveStats()
	PrimeSolves(withDup)
	primed := ReadSolveStats()
	if got := primed.Solves - before.Solves; got != 2 {
		t.Errorf("priming recorded %d evaluations, want 2 (one per grid size)", got)
	}
	ref := map[int]float64{}
	for i, m := range withDup {
		d, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if want := math.Abs(m.NodeCurrentA) * m.EdgeOhms * unitDrop(m.N); math.Float64bits(d) != math.Float64bits(want) {
			t.Fatalf("mesh %d: drop %x, want |I|·R·φ = %x", i, math.Float64bits(d), math.Float64bits(want))
		}
		if _, ok := ref[m.N]; !ok {
			ref[m.N] = cgDrop(t, m.N, 1, 1)
		}
		if want := math.Abs(m.NodeCurrentA) * m.EdgeOhms * ref[m.N]; !(math.Abs(d-want)/want <= 1e-12) {
			t.Errorf("mesh %d: drop %.17g, reference %.17g", i, d, want)
		}
	}
	if got := ReadSolveStats().Solves - primed.Solves; got != 0 {
		t.Errorf("solving primed meshes recorded %d extra evaluations, want 0", got)
	}
}

// TestPrimeSolvesSingleRequestNoop: priming a size that is already solved
// runs nothing, whether one mesh or an identical pair asks, and meshes of
// a size Solve rejects are skipped rather than solved.
func TestPrimeSolvesSingleRequestNoop(t *testing.T) {
	freshUnitTable()
	meshes := sweepMeshes(1, 41)
	if _, err := meshes[0].Solve(); err != nil {
		t.Fatal(err)
	}
	before := ReadSolveStats()
	PrimeSolves(meshes[:1])
	PrimeSolves([]*Mesh{meshes[0], meshes[0]})
	bad := []*Mesh{{N: 4, EdgeOhms: 1, NodeCurrentA: 1}, {N: 0, EdgeOhms: 1, NodeCurrentA: 1}, {N: MaxMeshN + 2, EdgeOhms: 1, NodeCurrentA: 1}}
	PrimeSolves(bad)
	if after := ReadSolveStats(); after != before {
		t.Errorf("priming solved sizes or invalid meshes moved the counters: %+v → %+v", before, after)
	}
}

// BenchmarkSweepBatch prices a 9-variant Vdd-shaped sweep (conductance and
// draw perturbed per variant) at two grid sizes:
//
//   - first-solve: the one unit-drop evaluation that the first mesh at a
//     new grid size pays;
//   - warm-sweep9: the 9 variants through Mesh.Solve once that size is
//     evaluated, which is what every later mesh of the size costs.
func BenchmarkSweepBatch(b *testing.B) {
	for _, n := range []int{127, 255} {
		b.Run(fmt.Sprintf("n=%d/first-solve", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if phi := unitDrop(n); !(phi > 0) {
					b.Fatalf("φ(%d) = %g", n, phi)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/warm-sweep9", n), func(b *testing.B) {
			meshes := sweepMeshes(9, n)
			if _, err := meshes[0].Solve(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, m := range meshes {
					if _, err := m.Solve(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
