package repro

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nanometer/internal/render"
	"nanometer/internal/result"
	"nanometer/internal/runner"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/report.golden from the current engine")

// TestGoldenFullReport pins the complete default text report byte for byte
// against testdata/report.golden. The golden file was committed from the
// pre-refactor engine, so this test is the contract that the compute/encode
// split changes no output byte. It renders at two worker counts so the pin
// holds for any -jobs value.
func TestGoldenFullReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full report render is slow; run without -short")
	}
	render := func(workers int) []byte {
		var buf bytes.Buffer
		results, err := (runner.Pool{Workers: workers}).RunToContext(context.Background(), &buf, Jobs(Artifacts(), Options{}))
		if err != nil {
			t.Fatal(err)
		}
		if err := runner.Errs(results); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got := render(1)
	path := filepath.Join("testdata", "report.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -args -update): %v", err)
	}
	compareGolden(t, "jobs=1", got, want)
	compareGolden(t, "jobs=8", render(8), want)
}

// TestGoldenJSONReport pins the default `-format json` document byte for
// byte: the full report marshaled with two-space indent, exactly as
// cmd/nanorepro emits it. With the scenario engine in place, the nil
// scenario must add no field ("scenario" is omitempty) and change no value.
func TestGoldenJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full report compute is slow; run without -short")
	}
	renderJSON := func(workers int) []byte {
		results, err := ComputeAllCtx(context.Background(), runner.Pool{Workers: workers}, Artifacts(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep := &result.Report{}
		for _, r := range results {
			rep.Artifacts = append(rep.Artifacts, r)
		}
		var buf bytes.Buffer
		if err := (render.JSON{Indent: "  "}).EncodeReport(&buf, rep); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got := renderJSON(1)
	path := filepath.Join("testdata", "report.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -args -update): %v", err)
	}
	compareGolden(t, "json jobs=1", got, want)
	compareGolden(t, "json jobs=8", renderJSON(8), want)
}

// TestGoldenCSVReport pins the default `-format csv` stream byte for byte
// at two worker counts.
func TestGoldenCSVReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full report compute is slow; run without -short")
	}
	renderCSV := func(workers int) []byte {
		var buf bytes.Buffer
		results, err := (runner.Pool{Workers: workers}).RunToContext(context.Background(), &buf, EncodeJobs(Artifacts(), Options{}, render.CSV{}))
		if err != nil {
			t.Fatal(err)
		}
		if err := runner.Errs(results); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got := renderCSV(1)
	path := filepath.Join("testdata", "report.golden.csv")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -args -update): %v", err)
	}
	compareGolden(t, "csv jobs=1", got, want)
	compareGolden(t, "csv jobs=8", renderCSV(8), want)
}

// compareGolden reports the first differing line, not just "differs" — the
// report is ~100s of lines and the offending artifact should be nameable
// from the failure alone.
func compareGolden(t *testing.T, label string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s: report diverges from golden at line %d:\n  got:  %q\n  want: %q", label, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: report length differs from golden: %d vs %d lines (%d vs %d bytes)", label, len(gl), len(wl), len(got), len(want))
}
