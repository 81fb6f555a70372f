package scenario

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/itrs"
)

const ext65Doc = `{
  "name": "ext65-test",
  "nodes": [
    {"node_nm": 65, "year": 2007, "vdd_v": 0.85, "tox_nm": 0.95, "leff_nm": 32}
  ]
}`

func TestParseOverrideScenario(t *testing.T) {
	s := MustParse(`{"name":"hot","nodes":[{"node_nm":70,"vdd_v":1.0,"junction_temp_c":110}]}`)
	lab, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	n, err := lab.Node(70)
	if err != nil {
		t.Fatal(err)
	}
	if n.Vdd != 1.0 || n.JunctionTempC != 110 {
		t.Fatalf("override not applied: Vdd=%g Tj=%g", n.Vdd, n.JunctionTempC)
	}
	// Untouched fields keep base values; untouched nodes are untouched.
	base := itrs.Base().MustNode(70)
	if n.ToxPhysicalM != base.ToxPhysicalM {
		t.Fatalf("Tox drifted: %g vs %g", n.ToxPhysicalM, base.ToxPhysicalM)
	}
	if got := lab.MustNode(50); got != itrs.Base().MustNode(50) {
		t.Fatalf("node 50 drifted under an override of node 70")
	}
	// The base laboratory must never be mutated by a scenario resolve.
	if device.BaseLab().MustNode(70) != base {
		t.Fatal("scenario resolve mutated the base laboratory")
	}
}

func TestResolveExtensionNode(t *testing.T) {
	s := MustParse(ext65Doc)
	lab, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(lab.NodesNM()), 7; got != want {
		t.Fatalf("node count = %d, want %d", got, want)
	}
	n, err := lab.Node(65)
	if err != nil {
		t.Fatal(err)
	}
	if n.Vdd != 0.85 || n.ToxPhysicalM != 0.95e-9 || n.LeffM != 32e-9 || n.Year != 2007 {
		t.Fatalf("extension overrides not applied: %+v", n)
	}
	// Unset fields seed from the nearest base node (70 nm).
	if n.ThetaJA != itrs.Base().MustNode(70).ThetaJA {
		t.Fatalf("ThetaJA = %g, want seeded %g", n.ThetaJA, itrs.Base().MustNode(70).ThetaJA)
	}
	// The extension node's devices calibrate, with model anchors seeded
	// from the nearest base node.
	d, err := lab.ForNode(65)
	if err != nil {
		t.Fatal(err)
	}
	seed, ok := device.BaseParams(70)
	if !ok {
		t.Fatal("no base params at 70 nm")
	}
	if d.Vth0 != seed.VthAnchor {
		t.Fatalf("Vth anchor = %g, want %g seeded from 70 nm", d.Vth0, seed.VthAnchor)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"empty name":          `{"name":""}`,
		"bad name chars":      `{"name":"No Spaces!"}`,
		"unknown field":       `{"name":"x","wat":1}`,
		"trailing data":       `{"name":"x"} {"name":"y"}`,
		"dup node":            `{"name":"x","nodes":[{"node_nm":70},{"node_nm":70}]}`,
		"node out of range":   `{"name":"x","nodes":[{"node_nm":5}]}`,
		"vdd out of range":    `{"name":"x","nodes":[{"node_nm":70,"vdd_v":9.9}]}`,
		"vdd NaN":             `{"name":"x","nodes":[{"node_nm":70,"vdd_v":"nan"}]}`,
		"bare extension":      `{"name":"x","nodes":[{"node_nm":65}]}`,
		"bad sweep param":     `{"name":"x","sweep":{"param":"frobnicate","steps":3,"span_pct":10}}`,
		"sweep steps zero":    `{"name":"x","sweep":{"param":"vdd","steps":0,"span_pct":10}}`,
		"sweep steps huge":    `{"name":"x","sweep":{"param":"vdd","steps":1000,"span_pct":10}}`,
		"sweep span zero":     `{"name":"x","sweep":{"param":"vdd","steps":3,"span_pct":0}}`,
		"sweep unknown node":  `{"name":"x","sweep":{"param":"vdd","steps":3,"span_pct":10,"nodes":[42]}}`,
		"sweep dup node":      `{"name":"x","sweep":{"param":"vdd","steps":3,"span_pct":10,"nodes":[70,50,70]}}`,
		"sweep dup name":      `{"name":"x","sweep":{"param":"vdd","steps":3,"span_pct":0.01,"nodes":[70]}}`,
		"expect no artifact":  `{"name":"x","expect":[{"artifact":"","check":"v","value":1,"rel_tol":0.1}]}`,
		"expect bad rel_tol":  `{"name":"x","expect":[{"artifact":"c7","check":"v","value":1,"rel_tol":0}]}`,
		"expect huge rel_tol": `{"name":"x","expect":[{"artifact":"c7","check":"v","value":1,"rel_tol":99}]}`,
		"not json":            `hello`,
		"year out of range":   `{"name":"x","nodes":[{"node_nm":70,"year":1776}]}`,
	}
	for label, doc := range cases {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: Parse accepted %q", label, doc)
		}
	}
	if _, err := Parse(bytes.Repeat([]byte(" "), MaxFileBytes+1)); err == nil {
		t.Error("Parse accepted an oversized document")
	}
	if _, err := Parse([]byte(fmt.Sprintf(`{"name":"x","nodes":[%s{"node_nm":180}]}`,
		strings.Repeat(`{"node_nm":180},`, MaxNodes)))); err == nil {
		t.Error("Parse accepted more than MaxNodes specs")
	}
}

func TestVariantsExpandSweep(t *testing.T) {
	s := MustParse(`{
	  "name": "vddsweep",
	  "nodes": [{"node_nm": 70, "junction_temp_c": 110}],
	  "sweep": {"param": "vdd", "steps": 9, "span_pct": 20, "nodes": [70]},
	  "expect": [{"artifact": "c1", "check": "node_nm", "value": 50, "rel_tol": 0.1}]
	}`)
	vs, err := s.Variants()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 9 {
		t.Fatalf("got %d variants, want 9", len(vs))
	}
	baseVdd := itrs.Base().MustNode(70).Vdd
	for i, v := range vs {
		factor := 0.8 + 0.4*float64(i)/8
		wantName := fmt.Sprintf("vddsweep/vdd=%.3f", factor)
		if v.Name != wantName {
			t.Fatalf("variant %d name = %q, want %q", i, v.Name, wantName)
		}
		if v.Sweep != nil {
			t.Fatalf("variant %d kept its sweep", i)
		}
		if len(v.Expect) != 0 {
			t.Fatalf("variant %d inherited expectations", i)
		}
		lab, err := v.Resolve()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		n := lab.MustNode(70)
		if diff := n.Vdd - baseVdd*factor; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("variant %d Vdd = %g, want %g", i, n.Vdd, baseVdd*factor)
		}
		// The non-swept override survives into every variant.
		if n.JunctionTempC != 110 {
			t.Fatalf("variant %d lost the junction-temp override", i)
		}
		// The unswept node is untouched.
		if lab.MustNode(180).Vdd != itrs.Base().MustNode(180).Vdd {
			t.Fatalf("variant %d scaled node 180, which is outside the sweep", i)
		}
	}
}

func TestVariantsWithoutSweep(t *testing.T) {
	s := MustParse(`{"name":"plain"}`)
	vs, err := s.Variants()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0] != s {
		t.Fatalf("sweepless scenario must be its own only variant")
	}
}

func TestKeyDistinguishesContent(t *testing.T) {
	a := MustParse(`{"name":"a","nodes":[{"node_nm":70,"vdd_v":1.0}]}`)
	b := MustParse(`{"name":"a","nodes":[{"node_nm":70,"vdd_v":1.1}]}`)
	c := MustParse(`{"name":"b","nodes":[{"node_nm":70,"vdd_v":1.0}]}`)
	same := MustParse(`{"name":"a","nodes":[{"node_nm":70,"vdd_v":1.0}]}`)
	if a.Key() == b.Key() {
		t.Error("key ignores override values")
	}
	if a.Key() == c.Key() {
		t.Error("key ignores the name")
	}
	if a.Key() != same.Key() {
		t.Error("identical documents produced different keys")
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	s := MustParse(ext65Doc)
	canon := s.Canonical()
	s2, err := Parse(canon)
	if err != nil {
		t.Fatalf("canonical form failed to re-parse: %v", err)
	}
	if !bytes.Equal(canon, s2.Canonical()) {
		t.Fatalf("canonical encoding is not a fixed point:\n%s\nvs\n%s", canon, s2.Canonical())
	}
}

func TestExpectFor(t *testing.T) {
	s := MustParse(`{"name":"x","expect":[
	  {"artifact":"c7","check":"vdd_floor","value":0.5,"rel_tol":0.2},
	  {"artifact":"c1","check":"node_nm","value":50,"rel_tol":0.01},
	  {"artifact":"c7","check":"dynamic_saving","value":0.4,"rel_tol":0.3}
	]}`)
	if got := len(s.ExpectFor("c7")); got != 2 {
		t.Fatalf("ExpectFor(c7) = %d entries, want 2", got)
	}
	if got := len(s.ExpectFor("t1")); got != 0 {
		t.Fatalf("ExpectFor(t1) = %d entries, want 0", got)
	}
	var nilS *Scenario
	if nilS.ExpectFor("c7") != nil {
		t.Fatal("nil scenario must have no expectations")
	}
}

func TestNilScenarioResolvesToBase(t *testing.T) {
	var s *Scenario
	lab, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if lab != device.BaseLab() {
		t.Fatal("nil scenario must resolve to the shared base laboratory")
	}
}
