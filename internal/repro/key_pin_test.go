package repro

import (
	"path/filepath"
	"testing"

	"nanometer/internal/scenario"
)

// pinnedOptions are the compute options whose keys TestComputeKeysPinned
// fixes: the base report, the default and a non-default mesh, and both
// committed scenarios.
func pinnedOptions(t testing.TB) map[string]Options {
	t.Helper()
	load := func(name string) *scenario.Scenario {
		s, err := scenario.Load(filepath.Join("..", "..", "scenarios", name))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return map[string]Options{
		"base":       {},
		"mesh-n=41":  {MeshN: 41},
		"mesh-n=255": {MeshN: 255},
		"ext65":      {Scenario: load("ext65.json")},
		"leakage":    {Scenario: load("leakage.json")},
	}
}

// TestComputeKeysPinned fixes the compute keys byte for byte. They name
// stored result files and open every ETag, so a change to how the key is
// hashed (rather than to what it covers) must leave them as they are;
// moving them on purpose means bumping keyVersion and this table together.
func TestComputeKeysPinned(t *testing.T) {
	want := map[string]string{
		"base":       "baad870e0c747b3c",
		"mesh-n=41":  "baad870e0c747b3c",
		"mesh-n=255": "74ff83df0c2c4d65",
		"ext65":      "32afcbcbbbc42c00",
		"leakage":    "d7fa1d8732a355db",
	}
	for name, opts := range pinnedOptions(t) {
		if got := opts.CacheKey(); got != want[name] {
			t.Errorf("%s: key %s, want %s", name, got, want[name])
		}
	}
}

// TestCacheKeyAllocs pins that a compute key costs one allocation, the
// returned string: the daemon derives one per request for the ETag.
func TestCacheKeyAllocs(t *testing.T) {
	for name, opts := range pinnedOptions(t) {
		opts.CacheKey() // memoizes a scenario's content key
		if n := testing.AllocsPerRun(100, func() { _ = opts.CacheKey() }); n > 1 {
			t.Errorf("%s: CacheKey allocates %.0f times, want ≤ 1", name, n)
		}
	}
}
