package render_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nanometer/internal/render"
	"nanometer/internal/repro"
	"nanometer/internal/result"
	"nanometer/internal/runner"
)

func computeOne(t *testing.T, id string) *result.Result {
	t.Helper()
	arts, err := repro.Select([]string{id})
	if err != nil {
		t.Fatal(err)
	}
	res, err := arts[0].ComputeCached(repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestJSONRoundTripsThroughResultTypes: the JSON encoding of real computed
// artifacts — one of each shape: plain table, table+figure, prose claim —
// unmarshals back into the result types with nothing lost.
func TestJSONRoundTripsThroughResultTypes(t *testing.T) {
	for _, id := range []string{"t1", "f2", "c7"} {
		res := computeOne(t, id)
		var buf bytes.Buffer
		if err := (render.JSON{}).Encode(&buf, res); err != nil {
			t.Fatal(err)
		}
		var back result.Result
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
			t.Fatalf("%s: invalid JSON: %v", id, err)
		}
		if !reflect.DeepEqual(res, &back) {
			t.Fatalf("%s: JSON round trip lost data", id)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("%s: decoded result invalid: %v", id, err)
		}
	}
}

// TestJSONReportCoversAllArtifacts is the acceptance gate: the full-run
// JSON document is valid, covers all 22 artifacts, and round-trips.
func TestJSONReportCoversAllArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("computes the full registry")
	}
	arts := repro.Artifacts()
	results, err := repro.ComputeAllCtx(context.Background(), runner.Pool{}, arts, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := &result.Report{Artifacts: results}
	var buf bytes.Buffer
	if err := (render.JSON{Indent: "  "}).EncodeReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var back result.Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("full report is not valid JSON: %v", err)
	}
	if len(back.Artifacts) != len(arts) {
		t.Fatalf("JSON report has %d artifacts, want %d", len(back.Artifacts), len(arts))
	}
	for i, r := range back.Artifacts {
		if r.ID != arts[i].ID {
			t.Fatalf("artifact %d: ID %q, want %q", i, r.ID, arts[i].ID)
		}
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i], r) {
			t.Fatalf("artifact %s changed across the round trip", r.ID)
		}
	}
}

// TestCSVMatchesLegacyFigureDump: the figure block of the CSV encoder must
// carry exactly the bytes the text encoder's -csv directory dump writes —
// the format downstream plotting already parses.
func TestCSVMatchesLegacyFigureDump(t *testing.T) {
	res := computeOne(t, "f2")
	dir := t.TempDir()
	var txt bytes.Buffer
	if err := (render.Text{CSVDir: dir}).Encode(&txt, res); err != nil {
		t.Fatal(err)
	}
	legacy, err := os.ReadFile(filepath.Join(dir, "figure2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := (render.CSV{}).Encode(&stream, res); err != nil {
		t.Fatal(err)
	}
	// Extract the figure block: from its comment header to the blank line.
	out := stream.String()
	marker := "# f2 figure figure2:"
	i := strings.Index(out, marker)
	if i < 0 {
		t.Fatalf("CSV stream missing figure block header:\n%s", out)
	}
	block := out[i:]
	block = block[strings.Index(block, "\n")+1:] // drop the comment line
	if j := strings.Index(block, "\n\n"); j >= 0 {
		block = block[:j+1]
	}
	if block != string(legacy) {
		t.Fatalf("CSV figure block differs from legacy file:\n got:\n%s\nwant:\n%s", block, legacy)
	}
}

// TestCSVCoversEveryItemKind: tables and claims, previously locked inside
// the text report, must appear in the CSV stream too.
func TestCSVCoversEveryItemKind(t *testing.T) {
	var buf bytes.Buffer
	for _, id := range []string{"t1", "c7"} {
		if err := (render.CSV{}).Encode(&buf, computeOne(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	for _, want := range []string{"# t1 table:", "# c7 claim findings", "key,value,unit,text,paper,pass", "vdd_floor,"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV stream missing %q:\n%s", want, out)
		}
	}
}

// TestVerboseAppendsChecks: Options.Verbose (the CLI's -v) appends the
// paper-check lines to claims and only to claims.
func TestVerboseAppendsChecks(t *testing.T) {
	res := computeOne(t, "c7")
	var quiet, loud bytes.Buffer
	if err := (render.Text{}).Encode(&quiet, res); err != nil {
		t.Fatal(err)
	}
	if err := (render.Text{Verbose: true}).Encode(&loud, res); err != nil {
		t.Fatal(err)
	}
	if quiet.String() == loud.String() {
		t.Fatal("verbose output must differ")
	}
	if !strings.HasPrefix(loud.String(), quiet.String()[:len(quiet.String())-1]) {
		t.Fatal("verbose must only append to the claim body")
	}
	if !strings.Contains(loud.String(), "check vdd_floor") || !strings.Contains(loud.String(), "PASS") {
		t.Fatalf("verbose output missing check lines:\n%s", loud.String())
	}
	if strings.Contains(quiet.String(), "check vdd_floor") {
		t.Fatal("quiet output must not carry check lines")
	}
}

// TestClaimTemplateMissingFinding: a template asking for a finding the
// compute layer didn't produce must fail loudly, not print zeros.
func TestClaimTemplateMissingFinding(t *testing.T) {
	res := &result.Result{ID: "c7", Title: "broken", Items: nil}
	res.AddClaim(&result.Claim{}) // no findings at all
	var buf bytes.Buffer
	err := (render.Text{}).Encode(&buf, res)
	if err == nil || !strings.Contains(err.Error(), "missing finding") {
		t.Fatalf("want missing-finding error, got %v", err)
	}
}

// TestTextUnknownClaim: results for claims without a registered template
// must error instead of silently vanishing.
func TestTextUnknownClaim(t *testing.T) {
	res := &result.Result{ID: "c99", Title: "unknown"}
	res.AddClaim(&result.Claim{})
	if err := (render.Text{}).Encode(io.Discard, res); err == nil {
		t.Fatal("unknown claim ID must error")
	}
}

// TestScenarioCSVsDoNotCollide: two results with different scenario labels
// (two variants of one sweep) encoded into one CSV directory each write
// their own figure file, at the path their text announces, holding their
// own data — not one file the second variant overwrote.
func TestScenarioCSVsDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	for _, v := range []struct {
		scenario string
		y        float64
	}{{"sweep/vdd=0.900", 1}, {"sweep/vdd=1.100", 2}} {
		res := &result.Result{ID: "f9", Title: "fake", Scenario: v.scenario}
		res.AddFigure(&result.Figure{Name: "figure9", Title: "fake", XLabel: "x",
			Series: []result.Series{{Name: "s", X: []float64{0}, Y: []float64{v.y}}}})
		if err := (render.Text{CSVDir: dir}).Encode(&out, res); err != nil {
			t.Fatal(err)
		}
	}
	var paths []string
	for _, line := range strings.Split(out.String(), "\n") {
		if p, ok := strings.CutPrefix(line, "  wrote "); ok {
			paths = append(paths, p)
		}
	}
	if len(paths) != 2 || paths[0] == paths[1] {
		t.Fatalf("announced CSV paths %q, want two distinct files", paths)
	}
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("x,s\n0,%d\n", i+1); string(data) != want {
			t.Errorf("%s holds %q, want %q", p, data, want)
		}
	}
}

// TestEncodeReportSkipsNilSlots: a run's failed computes leave nil slots;
// the report encodes the results around them, and a run with no results
// at all is the JSON document {"artifacts": null}.
func TestEncodeReportSkipsNilSlots(t *testing.T) {
	table := func(id string) *result.Result {
		res := &result.Result{ID: id}
		res.AddTable(&result.Table{Title: "table-" + id, Headers: []string{"h"}})
		return res
	}
	results := []*result.Result{table("a"), nil, table("c")}
	for format, want := range map[string][]string{
		"text": {"table-a", "table-c"},
		"csv":  {"# a table: table-a", "# c table: table-c"},
		"json": {`"id": "a"`, `"id": "c"`},
	} {
		enc, err := render.NewEncoding(format, render.Text{})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := enc.EncodeReport(&out, results); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		for _, w := range want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s report lacks %q:\n%s", format, w, out.String())
			}
		}
		var rep result.Report
		if format == "json" && (json.Unmarshal(out.Bytes(), &rep) != nil || len(rep.Artifacts) != 2) {
			t.Errorf("json report is not the two results:\n%s", out.String())
		}
	}
	enc, err := render.NewEncoding("json", render.Text{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := enc.EncodeReport(&out, []*result.Result{nil}); err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"artifacts\": null\n}\n"; out.String() != want {
		t.Errorf("empty run = %q, want %q", out.String(), want)
	}
}
