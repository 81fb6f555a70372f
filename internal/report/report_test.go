package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:   "demo",
		Headers: []string{"a", "bb"},
		Notes:   []string{"a note"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("xyz", "3.142", "42")
	out := tb.String()
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
	tb := &Table{Headers: []string{"µA/µm", "x"}}
	tb.AddRow("123", "y")
	out := tb.String()
	lines := strings.Split(out, "\n")
	// The µ characters must count as one column each: the second column
	// starts at the same rune offset in the header and the data row.
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

func TestSeriesAdd(t *testing.T) {
	s := &Series{Name: "s"}
	s.Add(1, 2)
	s.Add(3, 4)
	if len(s.X) != 2 || s.Y[1] != 4 {
		t.Fatalf("series add broken: %+v", s)
	}
}

func TestFigureCSVAligned(t *testing.T) {
	f := &Figure{
		XLabel: "x",
		Series: []*Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "b", X: []float64{1, 2}, Y: []float64{30, 40}},
		},
	}
	var b strings.Builder
	if err := f.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "x,a,b\n1,10,30\n2,20,40\n"
	if b.String() != want {
		t.Fatalf("csv = %q, want %q", b.String(), want)
	}
}

func TestFigureCSVLongFormat(t *testing.T) {
	f := &Figure{
		XLabel: "x",
		Series: []*Series{
			{Name: "a,1", X: []float64{1}, Y: []float64{10}},
			{Name: "b", X: []float64{1, 2}, Y: []float64{30, 40}},
		},
	}
	var b strings.Builder
	if err := f.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "series,x,y\n") {
		t.Fatalf("long format expected:\n%s", out)
	}
	if !strings.Contains(out, `"a,1"`) {
		t.Fatalf("csv escaping missing:\n%s", out)
	}
}

func TestRenderASCII(t *testing.T) {
	f := &Figure{
		Title: "plot", XLabel: "x", YLabel: "y",
		Series: []*Series{
			{Name: "up", X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}},
			{Name: "down", X: []float64{0, 1, 2}, Y: []float64{2, 1, 0}},
		},
	}
	var b strings.Builder
	f.RenderASCII(&b, 40, 10)
	out := b.String()
	if !strings.Contains(out, "plot") || !strings.Contains(out, "a = up") || !strings.Contains(out, "b = down") {
		t.Fatalf("render missing elements:\n%s", out)
	}
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Fatalf("marks missing:\n%s", out)
	}
}

func TestRenderASCIIDegenerate(t *testing.T) {
	f := &Figure{Series: []*Series{{Name: "flat", X: []float64{1}, Y: []float64{1}}}}
	var b strings.Builder
	f.RenderASCII(&b, 40, 10)
	if !strings.Contains(b.String(), "degenerate") {
		t.Fatalf("degenerate figures must be reported:\n%s", b.String())
	}
}

func TestRenderASCIILogAxes(t *testing.T) {
	f := &Figure{
		Title: "log", LogY: true,
		Series: []*Series{{Name: "s", X: []float64{1, 2, 3}, Y: []float64{1, 10, 100}}},
	}
	var b strings.Builder
	f.RenderASCII(&b, 40, 10)
	if b.Len() == 0 {
		t.Fatalf("no output")
	}
}
