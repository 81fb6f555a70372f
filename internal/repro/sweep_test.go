package repro

import (
	"bytes"
	"context"
	"testing"

	"nanometer/internal/experiments"
	"nanometer/internal/powergrid"
	"nanometer/internal/render"
	"nanometer/internal/runner"
	"nanometer/internal/scenario"
)

func sweepVariants(t *testing.T, steps int) []*scenario.Scenario {
	t.Helper()
	s, err := scenario.Parse([]byte(`{
	  "name": "sweeptest",
	  "sweep": {"param": "vdd", "steps": ` + itoa(steps) + `, "span_pct": 20, "nodes": [70]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	vs, err := s.Variants()
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// TestSweepMatchesSequentialBytes pins the CLI contract the flattening
// must preserve: one flattened pool run over variants × artifacts encodes
// to the exact bytes of a run-each-variant-sequentially loop, at any
// worker count.
func TestSweepMatchesSequentialBytes(t *testing.T) {
	ResetCache()
	variants := sweepVariants(t, 3)
	arts, err := Select([]string{"t1", "c8"})
	if err != nil {
		t.Fatal(err)
	}
	text := mustEncoding(t, "text", render.Text{})
	var sequential []byte
	for _, v := range variants {
		out, err := report(1, arts, Options{Scenario: v}, text)
		if err != nil {
			t.Fatal(err)
		}
		sequential = append(sequential, out...)
	}
	for _, workers := range []int{1, 8} {
		ResetCache()
		grouped, err := ComputeAllVariants(context.Background(), runner.Pool{Workers: workers}, arts, Options{}, variants)
		if err != nil {
			t.Fatal(err)
		}
		if len(grouped) != len(variants) {
			t.Fatalf("got %d variant groups, want %d", len(grouped), len(variants))
		}
		var flat bytes.Buffer
		for _, results := range grouped {
			if err := text.EncodeReport(&flat, results); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(flat.Bytes(), sequential) {
			t.Fatalf("workers=%d: flattened sweep output diverges from the sequential loop", workers)
		}
	}
}

// meshSweepVariants is a 3-step Vdd sweep at 35 nm: each c8 variant gets
// a different mesh of one size.
func meshSweepVariants(t *testing.T) []*scenario.Scenario {
	t.Helper()
	s, err := scenario.Parse([]byte(`{"name": "meshsweep", "sweep": {"param": "vdd", "steps": 3, "span_pct": 20, "nodes": [35]}}`))
	if err != nil {
		t.Fatal(err)
	}
	variants, err := s.Variants()
	if err != nil {
		t.Fatal(err)
	}
	return variants
}

// TestSweepSolvesEachMeshSizeOnce: the c8 variants of a 35 nm Vdd sweep
// share one unit solve, which outlives a cache flush, so recomputing the
// whole sweep after ResetCache runs no solve at all. The unit table may
// already be warm from earlier runs under -count or a -cpu list, hence
// "at most one" for the first sweep.
func TestSweepSolvesEachMeshSizeOnce(t *testing.T) {
	variants := meshSweepVariants(t)
	c8, err := Select([]string{"c8"})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MeshN: 45}
	for round := 0; round < 2; round++ {
		ResetCache()
		before := powergrid.ReadSolveStats()
		if _, err := ComputeAllVariants(context.Background(), runner.Pool{Workers: 2}, c8, opts, variants); err != nil {
			t.Fatal(err)
		}
		after := powergrid.ReadSolveStats()
		want := uint64(1)
		if round > 0 {
			want = 0
		}
		if got := after.Solves - before.Solves; got > want {
			t.Errorf("round %d: a 3-variant c8 sweep ran %d mesh solves, want ≤ %d", round, got, want)
		}
	}
}

// TestPrimeVariantsTelemetryNeutral: sweeps no longer park primed drops;
// warming the unit table for a sweep's meshes (powergrid.PrimeSolves) is
// what priming the variants amounts to. It must move no compute-cache
// counter, and the variants' computes afterwards run no further mesh solve.
func TestPrimeVariantsTelemetryNeutral(t *testing.T) {
	ResetCache()
	variants := meshSweepVariants(t)
	arts, err := Select([]string{"c8"})
	if err != nil {
		t.Fatal(err)
	}
	meshes := make([]*powergrid.Mesh, 0, len(variants))
	for _, v := range variants {
		lab, err := v.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		m, err := experiments.BumpMesh(lab, 0)
		if err != nil {
			t.Fatal(err)
		}
		meshes = append(meshes, m)
	}
	cacheBefore := ReadCacheStats()
	solvesBefore := powergrid.ReadSolveStats()
	powergrid.PrimeSolves(meshes)
	cacheAfter := ReadCacheStats()
	solvesAfter := powergrid.ReadSolveStats()
	if cacheAfter.Hits != cacheBefore.Hits || cacheAfter.Misses != cacheBefore.Misses {
		t.Errorf("priming moved cache counters: hits %d→%d misses %d→%d",
			cacheBefore.Hits, cacheAfter.Hits, cacheBefore.Misses, cacheAfter.Misses)
	}
	if got := solvesAfter.Solves - solvesBefore.Solves; got > 1 {
		t.Errorf("priming 3 meshes of one size ran %d solves, want ≤ 1", got)
	}
	for _, v := range variants {
		if _, err := arts[0].ComputeCached(Options{Scenario: v}); err != nil {
			t.Fatal(err)
		}
	}
	if got := powergrid.ReadSolveStats().Solves - solvesAfter.Solves; got != 0 {
		t.Errorf("computes after priming ran %d extra mesh solves, want 0", got)
	}
}

// TestPrimeVariantsNoopWithoutHeavyArtifact: only c8 solves a mesh, so a
// sweep without it moves no solve counter, cold cache or warm.
func TestPrimeVariantsNoopWithoutHeavyArtifact(t *testing.T) {
	variants := meshSweepVariants(t)
	arts, err := Select([]string{"t1"})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		ResetCache()
		before := powergrid.ReadSolveStats()
		if _, err := ComputeAllVariants(context.Background(), runner.Pool{Workers: 2}, arts, Options{MeshN: 45}, variants); err != nil {
			t.Fatal(err)
		}
		if got := powergrid.ReadSolveStats(); got != before {
			t.Errorf("round %d: a t1-only sweep moved the solve counters: %+v → %+v", round, before, got)
		}
	}
}
