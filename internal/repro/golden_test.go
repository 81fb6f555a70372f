package repro

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nanometer/internal/render"
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
	got := goldenReport(t, "text", 1)
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
	compareGolden(t, "jobs=8", goldenReport(t, "text", 8), want)
}

// TestGoldenJSONReport pins the default `-format json` document byte for
// byte: the full report marshaled with two-space indent, exactly as
// cmd/nanorepro emits it. With the scenario engine in place, the nil
// scenario must add no field ("scenario" is omitempty) and change no value.
func TestGoldenJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full report compute is slow; run without -short")
	}
	got := goldenReport(t, "json", 1)
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
	compareGolden(t, "json jobs=8", goldenReport(t, "json", 8), want)
}

// TestGoldenCSVReport pins the default `-format csv` stream byte for byte
// at two worker counts.
func TestGoldenCSVReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full report compute is slow; run without -short")
	}
	got := goldenReport(t, "csv", 1)
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
	compareGolden(t, "csv jobs=8", goldenReport(t, "csv", 8), want)
}

// goldenReport renders the default full report in format through the
// CLI's report path at the given worker count.
func goldenReport(t *testing.T, format string, workers int) []byte {
	t.Helper()
	out, err := report(workers, Artifacts(), Options{}, mustEncoding(t, format, render.Text{}))
	if err != nil {
		t.Fatal(err)
	}
	return out
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
