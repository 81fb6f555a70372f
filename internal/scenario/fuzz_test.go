package scenario

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzScenarioParse fuzzes the scenario trust boundary (files on disk, POST
// bodies). Properties: hostile input errors, never panics; any accepted
// scenario is internally valid (Validate agrees), checks each (artifact,
// check) pair at most once and sweeps each node at most once, and its
// canonical encoding is a fixed point — Parse(Canonical(s)) succeeds and
// re-encodes to the same bytes, so cache keys derived from Canonical are
// stable across a store/load round trip.
func FuzzScenarioParse(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`hello`,
		`{"name":"base"}`,
		`{"name":"x","nodes":[{"node_nm":70,"vdd_v":1.0}]}`,
		`{"name":"ext","nodes":[{"node_nm":65,"year":2007,"vdd_v":0.85,"tox_nm":0.95,"leff_nm":32}]}`,
		`{"name":"s","sweep":{"param":"vdd","steps":9,"span_pct":20}}`,
		`{"name":"s","sweep":{"param":"vdd","steps":9,"span_pct":20,"nodes":[70]}}`,
		`{"name":"s","sweep":{"param":"vdd","steps":9,"span_pct":20,"nodes":[70,70]}}`,
		`{"name":"s","sweep":{"param":"vdd","steps":3,"span_pct":0.01,"nodes":[70]}}`,
		`{"name":"s","sweep":{"param":"clock","steps":33,"span_pct":1.6,"nodes":[70]}}`,
		`{"name":"e","expect":[{"artifact":"c7","check":"vdd_floor","value":0.5,"rel_tol":0.2}]}`,
		`{"name":"x","nodes":[{"node_nm":70,"vdd_v":1e308}]}`,
		`{"name":"x","nodes":[{"node_nm":70,"vdd_v":null}]}`,
		`{"name":"x","title":"t","notes":["a","b"]}`,
		`{"name":"x"} trailing`,
		`{"name":"x","wat":1}`,
		`{"name":"x","nodes":[{"node_nm":-70}]}`,
		`[{"name":"x"}]`,
		`{"name":"x","nodes":[{"node_nm":70,"dibl_v_per_v":0.6}]}`,
		`{"name":"d","expect":[{"artifact":"c7","check":"vdd_floor","value":0.5,"rel_tol":0.2},{"artifact":"c7","check":"vdd_floor","value":0.4,"rel_tol":0.2}]}`,
		`{"name":"d","expect":[{"artifact":"c7","check":"vdd_floor","value":0.5,"rel_tol":0.2},{"artifact":"c1","check":"vdd_floor","value":0.4,"rel_tol":0.2}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data) // must never panic
		if err != nil {
			if err.Error() == "" {
				t.Fatal("Parse rejected input with an empty message")
			}
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Parse accepted a scenario its own Validate rejects: %v", err)
		}
		pairs := map[[2]string]bool{}
		for _, e := range s.Expect {
			k := [2]string{e.Artifact, e.Check}
			if pairs[k] {
				t.Fatalf("Parse accepted a second check %s/%s", e.Artifact, e.Check)
			}
			pairs[k] = true
		}
		if s.Sweep != nil {
			for i, nm := range s.Sweep.Nodes {
				if slices.Contains(s.Sweep.Nodes[:i], nm) {
					t.Fatalf("Parse accepted sweep node %d twice", nm)
				}
			}
			// Variants name CSV directories and NDJSON lines, so an
			// accepted sweep must name each one differently.
			if vs, err := s.Variants(); err == nil {
				names := map[string]bool{}
				for _, v := range vs {
					if names[v.Name] {
						t.Fatalf("Parse accepted a sweep with two variants named %s", v.Name)
					}
					names[v.Name] = true
				}
			}
		}
		canon := s.Canonical()
		s2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical encoding of an accepted scenario fails to re-parse: %v\ncanonical: %s", err, canon)
		}
		if !bytes.Equal(canon, s2.Canonical()) {
			t.Fatalf("canonical encoding is not a fixed point:\n first: %s\nsecond: %s", canon, s2.Canonical())
		}
		if s.Key() != s2.Key() {
			t.Fatal("round-tripped scenario changed its cache key")
		}
	})
}
