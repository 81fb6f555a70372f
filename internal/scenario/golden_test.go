package scenario

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/variants.golden from the current code")

// sweptOverride is, per sweep param, the override of a swept field that
// the extension node of the golden's third case adds to its required
// vdd_v, tox_nm and leff_nm, so the sweep must replace a value the spec
// already sets (tox_nm is one of the required three).
var sweptOverride = map[string]string{
	"vdd":       `,"vdd_alt_v":0.95`,
	"theta_ja":  `,"theta_ja_c_per_w":0.4`,
	"clock":     `,"clock_ghz":7,"local_clock_ghz":8`,
	"max_power": `,"max_power_w":150`,
}

// goldenDocs lists the documents the variants golden expands: every sweep
// param over all nodes, over one base node that already has a spec, and
// over an extension node that also overrides the swept field; then both
// committed scenarios.
func goldenDocs(t *testing.T) []string {
	var docs []string
	for _, p := range SweepParamNames() {
		docs = append(docs,
			fmt.Sprintf(`{"name":"all-%s","sweep":{"param":%q,"steps":3,"span_pct":20}}`, p, p),
			fmt.Sprintf(`{"name":"base-%s","nodes":[{"node_nm":70,"junction_temp_c":110}],"sweep":{"param":%q,"steps":9,"span_pct":20,"nodes":[70]}}`, p, p),
			fmt.Sprintf(`{"name":"ext-%s","nodes":[{"node_nm":65,"vdd_v":0.85,"tox_nm":0.95,"leff_nm":33%s}],"sweep":{"param":%q,"steps":5,"span_pct":35,"nodes":[65,50]}}`, p, sweptOverride[p], p))
	}
	for _, name := range []string{"ext65.json", "leakage.json"} {
		b, err := os.ReadFile(filepath.Join("..", "..", "scenarios", name))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(b))
	}
	return docs
}

// TestVariantsGolden pins the canonical bytes and key of every variant the
// golden documents expand into, byte for byte, against
// testdata/variants.golden. The file was written before the sweep moved
// onto the field table, so it is the contract that the table changes no
// variant and no compute key.
func TestVariantsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, d := range goldenDocs(t) {
		s, err := Parse([]byte(d))
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		vs, err := s.Variants()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, v := range vs {
			fmt.Fprintf(&got, "%s %s\n%s\n", v.Name, v.Key(), v.Canonical())
		}
	}
	path := filepath.Join("testdata", "variants.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -args -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(gl), len(wl)) {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("variants differ in length: got %d lines, want %d", len(gl), len(wl))
	}
}
