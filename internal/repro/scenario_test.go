package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"nanometer/internal/itrs"
	"nanometer/internal/result"
	"nanometer/internal/runner"
	"nanometer/internal/scenario"
)

// TestScenarioComputeKeys pins the cache-key contract of the scenario
// engine: the nil scenario hashes exactly as the pre-scenario engine did
// (so every ETag and store file survives the refactor), and any content
// difference — not just a name difference — separates keys.
func TestScenarioComputeKeys(t *testing.T) {
	base := Options{}.computeKey()
	a := Options{Scenario: scenario.MustParse(`{"name":"a","nodes":[{"node_nm":70,"vdd_v":1.0}]}`)}
	b := Options{Scenario: scenario.MustParse(`{"name":"a","nodes":[{"node_nm":70,"vdd_v":1.1}]}`)}
	keys := map[string]string{"nil": base, "a@1.0": a.computeKey(), "a@1.1": b.computeKey()}
	seen := map[string]string{}
	for label, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("options %s and %s share compute key %s", label, prev, k)
		}
		seen[k] = label
	}
	// Same scenario content, distinct *Scenario values: the key must depend
	// on content, not identity, or replicas could never share results.
	a2 := Options{Scenario: scenario.MustParse(`{"name":"a","nodes":[{"node_nm":70,"vdd_v":1.0}]}`)}
	if a.computeKey() != a2.computeKey() {
		t.Error("equal scenario documents produced different compute keys")
	}
}

// findClaim returns the named finding from the result's claim items.
func findClaim(t *testing.T, res *result.Result, key string) result.Finding {
	t.Helper()
	for _, it := range res.Items {
		if it.Claim == nil {
			continue
		}
		if f, ok := it.Claim.Find(key); ok {
			return f
		}
	}
	t.Fatalf("%s: no claim finding %q", res.ID, key)
	return result.Finding{}
}

// TestCommittedScenarios is the ground-truth gate for the files under
// scenarios/: each must load, resolve into a laboratory, compute real
// artifacts with its name stamped on every result, pass every one of its
// own expectations, and hit the compute cache on repeat. The two committed
// scenarios must also disagree observably — the leakage corner heats the
// 50 nm die, the extension set does not.
func TestCommittedScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("computes real artifacts; run without -short")
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("expected at least 2 committed scenarios, found %d", len(paths))
	}
	virusTemp := map[string]float64{}
	for _, path := range paths {
		s, err := scenario.Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, err := s.Resolve(); err != nil {
			t.Fatalf("%s: resolve: %v", path, err)
		}
		if len(s.Expect) == 0 {
			t.Fatalf("%s: committed scenarios must carry expectations", path)
		}
		opts := Options{Scenario: s}
		ids := map[string]bool{}
		for _, e := range s.Expect {
			ids[e.Artifact] = true
		}
		for id := range ids {
			arts, err := Select([]string{id})
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			res, err := arts[0].ComputeCached(opts)
			if err != nil {
				t.Fatalf("%s: compute %s: %v", s.Name, id, err)
			}
			if res.Scenario != s.Name {
				t.Fatalf("%s: result %s stamped scenario %q", s.Name, id, res.Scenario)
			}
			// Scenario expectations replaced the paper checks; all must hold.
			for _, it := range res.Items {
				if it.Claim == nil {
					continue
				}
				for _, f := range it.Claim.FailedChecks() {
					t.Errorf("%s: %s/%s = %g fails its scenario check", s.Name, id, f.Key, f.Value)
				}
			}
			again, err := arts[0].ComputeCached(opts)
			if err != nil {
				t.Fatalf("%s: recompute %s: %v", s.Name, id, err)
			}
			if again != res {
				t.Errorf("%s: repeat compute of %s missed the cache", s.Name, id)
			}
			if id == "c1" {
				virusTemp[s.Name] = findClaim(t, res, "virus_peak_temp_c").Value
			}
		}
	}
	if len(virusTemp) >= 2 {
		seen := map[float64]string{}
		for name, v := range virusTemp {
			if prev, dup := seen[v]; dup {
				t.Errorf("scenarios %s and %s produce identical c1 virus peak temp %g — they must be observably distinct", name, prev, v)
			}
			seen[v] = name
		}
	}
}

// TestEveryArtifactReadsTheScenario: under a scenario that nudges every
// base node (Vdd ×1.02, junction temperature +1 °C), every registry
// artifact computes data that differs from base. An artifact whose model
// reached for device.BaseLab or itrs.Base instead of its options' lab
// would come out identical, so no scenario can be computed silently at
// base parameters. The scenario stamp and the checks differ by
// construction and are ignored.
func TestEveryArtifactReadsTheScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("computes the full registry twice; run without -short")
	}
	var nodes []string
	for _, n := range itrs.Base().All() {
		nodes = append(nodes, fmt.Sprintf(`{"node_nm":%d,"vdd_v":%g,"junction_temp_c":%g}`,
			n.DrawnNM, n.Vdd*1.02, n.JunctionTempC+1))
	}
	nudge := scenario.MustParse(`{"name":"nudge","nodes":[` + strings.Join(nodes, ",") + `]}`)
	arts := Artifacts()
	base, err := ComputeAllCtx(context.Background(), runner.Pool{}, arts, Options{})
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	nudged, err := ComputeAllCtx(context.Background(), runner.Pool{}, arts, Options{Scenario: nudge})
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	for i, a := range arts {
		if bytes.Equal(resultData(t, base[i]), resultData(t, nudged[i])) {
			t.Errorf("%s computes the same data under an all-node scenario as at base: it does not read the scenario's lab", a.ID)
		}
	}
}

// resultData is res's JSON without the scenario stamp and the checks. It
// works on a decoded copy, because cached results are shared.
func resultData(t *testing.T, res *result.Result) []byte {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var c result.Result
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	c.Scenario = ""
	for _, it := range c.Items {
		if it.Claim != nil {
			for i := range it.Claim.Findings {
				it.Claim.Findings[i].Check = nil
			}
		}
	}
	data, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
