package repro

import (
	"bytes"
	"context"
	"testing"

	"nanometer/internal/powergrid"
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

// TestVariantJobsMatchSequentialBytes pins the CLI contract the flattening
// must preserve: one flattened pool run over variants × artifacts emits
// the exact bytes of the historical run-each-variant-sequentially loop,
// at any worker count.
func TestVariantJobsMatchSequentialBytes(t *testing.T) {
	ResetCache()
	variants := sweepVariants(t, 3)
	arts, err := Select([]string{"t1", "c8"})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{}
	var sequential bytes.Buffer
	for _, v := range variants {
		vo := opts
		vo.Scenario = v
		if _, err := (runner.Pool{Workers: 1}).RunToContext(context.Background(), &sequential, Jobs(arts, vo)); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 8} {
		ResetCache()
		var flat bytes.Buffer
		jobs := VariantJobs(arts, opts, variants, nil)
		if len(jobs) != len(arts)*len(variants) {
			t.Fatalf("got %d jobs, want %d", len(jobs), len(arts)*len(variants))
		}
		if _, err := (runner.Pool{Workers: workers}).RunToContext(context.Background(), &flat, jobs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(flat.Bytes(), sequential.Bytes()) {
			t.Fatalf("workers=%d: flattened sweep output diverges from the sequential loop", workers)
		}
	}
}

// TestPrimeVariantsTelemetryNeutral is the guard the CI scenario smoke
// depends on: priming must not move the compute-cache hit/miss counters
// (it probes map presence, never ComputeCached), and must batch exactly
// the sweep's mesh solves so the per-variant computes consume them.
func TestPrimeVariantsTelemetryNeutral(t *testing.T) {
	ResetCache()
	variants := sweepVariants(t, 3)
	arts, err := Select([]string{"c8"})
	if err != nil {
		t.Fatal(err)
	}
	cacheBefore := ReadCacheStats()
	solvesBefore := powergrid.ReadSolveStats()
	PrimeVariants(arts, Options{}, variants)
	cacheAfter := ReadCacheStats()
	solvesAfter := powergrid.ReadSolveStats()
	if cacheAfter.Hits != cacheBefore.Hits || cacheAfter.Misses != cacheBefore.Misses {
		t.Errorf("priming moved cache counters: hits %d→%d misses %d→%d",
			cacheBefore.Hits, cacheAfter.Hits, cacheBefore.Misses, cacheAfter.Misses)
	}
	if got := solvesAfter.Batched - solvesBefore.Batched; got != 3 {
		t.Errorf("priming batched %d solves, want 3", got)
	}
	// The primed variants' computes consume the parked drops: no further
	// mesh solves run.
	for _, v := range variants {
		if _, err := arts[0].ComputeCached(Options{Scenario: v}); err != nil {
			t.Fatal(err)
		}
	}
	consumed := powergrid.ReadSolveStats()
	if got := consumed.Solves - solvesAfter.Solves; got != 0 {
		t.Errorf("computes after priming ran %d extra mesh solves, want 0", got)
	}
}

// TestPrimeVariantsNoopWithoutHeavyArtifact: selections without c8 have no
// mesh-bound compute to share, so priming must not solve anything (the CI
// scenario smoke posts only=t1 sweeps and asserts exact solve counts).
func TestPrimeVariantsNoopWithoutHeavyArtifact(t *testing.T) {
	ResetCache()
	variants := sweepVariants(t, 3)
	arts, err := Select([]string{"t1"})
	if err != nil {
		t.Fatal(err)
	}
	before := powergrid.ReadSolveStats()
	PrimeVariants(arts, Options{}, variants)
	after := powergrid.ReadSolveStats()
	if after.Solves != before.Solves {
		t.Errorf("priming without c8 ran %d mesh solves", after.Solves-before.Solves)
	}
}
