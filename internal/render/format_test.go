package render

import (
	"strings"
	"testing"

	"nanometer/internal/result"
)

func tableText(t *testing.T, tb *result.Table) string {
	t.Helper()
	var b strings.Builder
	if err := writeTable(&b, tb); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestTableRendering(t *testing.T) {
	tb := &result.Table{
		Title:   "demo",
		Headers: []string{"a", "bb"},
		Notes:   []string{"a note"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("xyz", "3.142", "42")
	out := tableText(t, tb)
	if !strings.Contains(out, "demo") || !strings.Contains(out, "a note") {
		t.Fatalf("missing title or note:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
	// Header row then separator.
	if !strings.HasPrefix(lines[1], "a") || !strings.HasPrefix(lines[2], "--") {
		t.Fatalf("layout unexpected:\n%s", out)
	}
}

func TestTableUnicodeAlignment(t *testing.T) {
	for _, unit := range []string{"µA/µm", "θja (°C/W)"} {
		tb := &result.Table{Headers: []string{unit, "x"}}
		tb.AddRow("123", "y")
		out := tableText(t, tb)
		lines := strings.Split(out, "\n")
		// The µ, θ and ° characters must count as one column each: the
		// second column starts at the same rune offset in the header and
		// the data row.
		runeIndex := func(s string, c rune) int {
			for i, r := range []rune(s) {
				if r == c {
					return i
				}
			}
			return -1
		}
		if runeIndex(lines[0], 'x') != runeIndex(lines[2], 'y') {
			t.Fatalf("unicode misalignment:\n%s", out)
		}
	}
}

func figureCSV(t *testing.T, f *result.Figure) string {
	t.Helper()
	var b strings.Builder
	if err := writeFigureCSV(&b, f); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestFigureCSVAligned(t *testing.T) {
	f := &result.Figure{
		XLabel: "x",
		Series: []result.Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "b", X: []float64{1, 2}, Y: []float64{30, 40}},
		},
	}
	want := "x,a,b\n1,10,30\n2,20,40\n"
	if got := figureCSV(t, f); got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
}

func TestFigureCSVLongFormat(t *testing.T) {
	f := &result.Figure{
		XLabel: "x",
		Series: []result.Series{
			{Name: "a,1", X: []float64{1}, Y: []float64{10}},
			{Name: "b", X: []float64{1, 2}, Y: []float64{30, 40}},
		},
	}
	out := figureCSV(t, f)
	if !strings.HasPrefix(out, "series,x,y\n") {
		t.Fatalf("long format expected:\n%s", out)
	}
	if !strings.Contains(out, `"a,1"`) {
		t.Fatalf("csv escaping missing:\n%s", out)
	}
}

func plotText(f *result.Figure) string {
	var b strings.Builder
	plotASCII(&b, f, 40, 10)
	return b.String()
}

func TestRenderASCII(t *testing.T) {
	f := &result.Figure{
		Title: "plot", XLabel: "x", YLabel: "y",
		Series: []result.Series{
			{Name: "up", X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}},
			{Name: "down", X: []float64{0, 1, 2}, Y: []float64{2, 1, 0}},
		},
	}
	out := plotText(f)
	if !strings.Contains(out, "plot") || !strings.Contains(out, "a = up") || !strings.Contains(out, "b = down") {
		t.Fatalf("render missing elements:\n%s", out)
	}
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Fatalf("marks missing:\n%s", out)
	}
}

func TestRenderASCIIDegenerate(t *testing.T) {
	f := &result.Figure{Series: []result.Series{{Name: "flat", X: []float64{1}, Y: []float64{1}}}}
	if out := plotText(f); !strings.Contains(out, "degenerate") {
		t.Fatalf("degenerate figures must be reported:\n%s", out)
	}
}

func TestRenderASCIILogAxes(t *testing.T) {
	f := &result.Figure{
		Title: "log", LogY: true,
		Series: []result.Series{{Name: "s", X: []float64{1, 2, 3}, Y: []float64{1, 10, 100}}},
	}
	if plotText(f) == "" {
		t.Fatalf("no output")
	}
}
