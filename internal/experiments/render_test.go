package experiments

import (
	"encoding/csv"
	"io"
	"strings"
	"testing"

	"nanometer/internal/render"
	"nanometer/internal/result"
)

// The rendering paths cmd/nanorepro relies on: tables carry the paper
// comparison columns, figures write well-formed CSV.

// encode runs one of the render encoders over a single-item result.
func encode(t *testing.T, enc interface {
	Encode(w io.Writer, res *result.Result) error
}, it result.Item) string {
	t.Helper()
	var b strings.Builder
	if err := enc.Encode(&b, &result.Result{ID: "x", Items: []result.Item{it}}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestTable1ReportRenders(t *testing.T) {
	out := encode(t, render.Text{}, result.Item{Kind: result.KindTable, Table: table(t, run(t, Table1))})
	for _, want := range []string{"[24]", "[29]", "ITRS", "Ioff (nA/µm)", "+78%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 report missing %q:\n%s", want, out)
		}
	}
}

func TestTable2ReportRenders(t *testing.T) {
	out := encode(t, render.Text{}, result.Item{Kind: result.KindTable, Table: table(t, run(t, Table2))})
	for _, want := range []string{"Vth req", "paper", "Ioff MG", "ITRS Ioff", "152×"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 report missing %q:\n%s", want, out)
		}
	}
	// Every node row present, including the 0.7 V variant.
	for _, want := range []string{"180", "130", "100", "70", "50", "35", "0.7"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 report missing node marker %q", want)
		}
	}
}

func TestFigureCSVWellFormed(t *testing.T) {
	fig := figure(t, run(t, Figure1))
	out := encode(t, render.CSV{}, result.Item{Kind: result.KindFigure, Figure: fig})
	// Past its "#" block header the output must parse as CSV (series names
	// contain commas and rely on quoting) in the aligned wide format:
	// header + 25 activity points, 4 columns each.
	r := csv.NewReader(strings.NewReader(out))
	r.Comment = '#'
	records, err := r.ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v", err)
	}
	if len(records) != 26 {
		t.Fatalf("Figure 1 CSV has %d records, want 26 (header + 25 points)", len(records))
	}
	for i, rec := range records {
		if len(rec) != 4 {
			t.Fatalf("record %d has %d fields, want 4", i, len(rec))
		}
	}
}

func TestFigure5FigureSeries(t *testing.T) {
	fig := figure(t, run(t, Figure5))
	if len(fig.Series) != 3 {
		t.Fatalf("Figure 5 wants 3 series, got %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != 6 {
			t.Fatalf("series %q has %d points, want one per node", s.Name, len(s.X))
		}
	}
	// The ASCII renderer must handle the log-axis figure.
	out := encode(t, render.Text{Plot: true}, result.Item{Kind: result.KindFigure, Figure: fig})
	if !strings.Contains(out, "Figure 5") {
		t.Fatalf("ASCII render failed:\n%s", out)
	}
}
