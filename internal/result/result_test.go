package result

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestCheckFiresOnWrongPaperValue: the pass/fail machinery must actually
// discriminate — the same computed value passes against the paper's real
// number and fails against a deliberately wrong one.
func TestCheckFiresOnWrongPaperValue(t *testing.T) {
	if ck := NewCheck(0.44, 0.44, 0.1); !ck.Pass {
		t.Fatal("exact match must pass")
	}
	if ck := NewCheck(0.46, 0.44, 0.1); !ck.Pass {
		t.Fatal("value within tolerance must pass")
	}
	if ck := NewCheck(0.44, 4.4, 0.1); ck.Pass {
		t.Fatal("check against a wrong paper value must fail")
	}
	if ck := NewCheck(0.60, 0.44, 0.1); ck.Pass {
		t.Fatal("value outside tolerance must fail")
	}
	// Negative quoted values compare on magnitude of the deviation.
	if ck := NewCheck(-0.9, -1.0, 0.2); !ck.Pass {
		t.Fatal("negative-value check must pass within tolerance")
	}
}

func TestClaimBuilderAndLookup(t *testing.T) {
	c := &Claim{}
	c.Num("vdd", 0.44, "V").
		Str("class", "fan").
		Bool("met", true).
		Num("saving", 0.46, "").
		Num("broken", 0.46, "")
	res := &Result{ID: "x"}
	res.AddClaim(c)
	if err := res.ApplyChecks([]Expect{{"saving", 0.46, 0.1}, {"broken", 99, 0.1}}); err != nil {
		t.Fatal(err)
	}
	if f, ok := c.Find("vdd"); !ok || f.Value != 0.44 || f.Unit != "V" {
		t.Fatalf("Find(vdd) = %+v, %v", f, ok)
	}
	if f, _ := c.Find("met"); f.Text != "true" || f.Value != 1 {
		t.Fatalf("bool finding = %+v", f)
	}
	if _, ok := c.Find("absent"); ok {
		t.Fatal("Find must report missing keys")
	}
	failed := res.FailedChecks()
	if len(failed) != 1 || failed[0].Key != "broken" {
		t.Fatalf("FailedChecks = %+v, want just the deliberately wrong one", failed)
	}
}

// TestApplyChecks pins the one apply path: a later expectation on a key
// replaces an earlier one, findings no expectation names stay unchecked,
// and an expectation naming no finding is an error.
func TestApplyChecks(t *testing.T) {
	res := &Result{ID: "x"}
	res.AddTable(&Table{})
	res.AddClaim((&Claim{}).Num("a", 1, "").Num("b", 2, ""))
	if err := res.ApplyChecks([]Expect{{"a", 5, 0.1}, {"a", 1, 0.1}}); err != nil {
		t.Fatal(err)
	}
	if f, _ := res.Items[1].Claim.Find("a"); f.Check == nil || f.Check.Paper != 1 || !f.Check.Pass {
		t.Errorf("a's check = %+v, want the later expectation's passing one", f.Check)
	}
	if f, _ := res.Items[1].Claim.Find("b"); f.Check != nil {
		t.Errorf("b carries check %+v, but no expectation names it", f.Check)
	}
	if err := res.ApplyChecks([]Expect{{"typo", 1, 0.1}}); err == nil || !strings.Contains(err.Error(), "typo") {
		t.Errorf("unmatched expectation: err %v, want one naming the key", err)
	}
}

func TestExpectValidate(t *testing.T) {
	if err := (Expect{"a", 0, 0.5}).Validate(); err != nil {
		t.Errorf("valid expectation rejected: %v", err)
	}
	for name, e := range map[string]Expect{
		"no key":       {"", 1, 0.1},
		"zero tol":     {"a", 1, 0},
		"huge tol":     {"a", 1, 11},
		"nan tol":      {"a", 1, math.NaN()},
		"inf value":    {"a", math.Inf(1), 0.1},
		"nan value":    {"a", math.NaN(), 0.1},
		"negative tol": {"a", 1, -0.1},
	} {
		if err := e.Validate(); err == nil {
			t.Errorf("%s: %+v accepted", name, e)
		}
	}
}

// TestJSONRoundTrip: a result carrying all three item kinds survives
// encoding/json without loss — the contract the JSON encoder and any
// future serving layer lean on.
func TestJSONRoundTrip(t *testing.T) {
	res := &Result{ID: "x1", Title: "round-trip fixture"}
	res.AddTable(&Table{
		Title:   "a table",
		Headers: []string{"node", "value"},
		Rows:    [][]string{{"180", "1.5"}, {"35", "0.6"}},
		Notes:   []string{"a note, with comma"},
	})
	res.AddFigure(&Figure{
		Name: "figx", Title: "a figure", XLabel: "x", YLabel: "y", LogY: true,
		Series: []Series{{Name: "s1", X: []float64{1, 2}, Y: []float64{3, 4}}},
	})
	c := &Claim{}
	c.Num("power", 1.5, "W").Str("class", "fan").Bool("ok", false).Num("pitch", 356, "µm")
	res.AddClaim(c)
	if err := res.ApplyChecks([]Expect{{"pitch", 356, 0.1}}); err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, &back) {
		t.Fatalf("round trip lost data:\n got %+v\nwant %+v", &back, res)
	}
}

func TestValidate(t *testing.T) {
	bad := &Result{ID: "x", Items: []Item{{Kind: KindTable}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("kind without payload must fail validation")
	}
	bad = &Result{ID: "x", Items: []Item{{Kind: KindTable, Table: &Table{}, Claim: &Claim{}}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("two payloads must fail validation")
	}
	bad = &Result{Items: nil}
	if err := bad.Validate(); err == nil {
		t.Fatal("missing ID must fail validation")
	}
	bad = &Result{ID: "x"}
	bad.AddFigure(&Figure{Name: "empty"})
	if err := bad.Validate(); err == nil {
		t.Fatal("figure without series must fail validation")
	}
	bad = &Result{ID: "x"}
	bad.AddFigure(&Figure{Name: "ragged", Series: []Series{
		{Name: "ok", X: []float64{1, 2}, Y: []float64{3, 4}},
		{Name: "ragged", X: []float64{1, 2}, Y: []float64{3}},
	}})
	if err := bad.Validate(); err == nil {
		t.Fatal("series with unequal X and Y lengths must fail validation")
	}
}

func TestSeriesAdd(t *testing.T) {
	s := &Series{Name: "s"}
	s.Add(1, 2)
	s.Add(3, 4)
	if len(s.X) != 2 || s.Y[1] != 4 {
		t.Fatalf("series add broken: %+v", s)
	}
}
