package render

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"nanometer/internal/result"
)

// CSV streams every item of a result as a comma-separated block headed by a
// "# <artifact> <kind> ..." comment line and separated by blank lines.
// Figure blocks carry exactly the bytes the legacy -csv directory dump
// wrote per file, so existing figure-CSV consumers keep parsing; tables and
// claim findings — previously locked inside the text report — become CSV
// here too.
type CSV struct{}

// Encode writes the result's items in order. A scenario-labeled result
// leads with a "# scenario:" comment; the empty label emits nothing extra,
// preserving byte identity with the pre-scenario output.
func (CSV) Encode(w io.Writer, res *result.Result) error {
	if res.Scenario != "" {
		fmt.Fprintf(w, "# scenario: %s\n", res.Scenario)
	}
	for _, it := range res.Items {
		var err error
		switch {
		case it.Table != nil:
			err = encodeTableCSV(w, res.ID, it.Table)
		case it.Figure != nil:
			err = encodeFigureCSV(w, res.ID, it.Figure)
		case it.Claim != nil:
			err = encodeClaimCSV(w, res.ID, it.Claim)
		default:
			err = fmt.Errorf("render: %s: empty item", res.ID)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func encodeTableCSV(w io.Writer, id string, t *result.Table) error {
	fmt.Fprintf(w, "# %s table: %s\n", id, t.Title)
	writeRecord(w, t.Headers)
	for _, row := range t.Rows {
		writeRecord(w, row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// writeFigureCSV emits one figure's data: wide format (x, one column per
// series) when every series shares the first one's x grid, long format
// (series,x,y) otherwise. These are the bytes of a -csv directory file.
func writeFigureCSV(w io.Writer, f *result.Figure) error {
	first := &f.Series[0]
	aligned := true
	for si := 1; si < len(f.Series) && aligned; si++ {
		aligned = slices.Equal(f.Series[si].X, first.X)
	}
	if aligned {
		fmt.Fprintf(w, "%s", csvEscape(f.XLabel))
		for si := range f.Series {
			fmt.Fprintf(w, ",%s", csvEscape(f.Series[si].Name))
		}
		fmt.Fprintln(w)
		for i := range first.X {
			fmt.Fprintf(w, "%g", first.X[i])
			for si := range f.Series {
				fmt.Fprintf(w, ",%g", f.Series[si].Y[i])
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	fmt.Fprintln(w, "series,x,y")
	for si := range f.Series {
		s := &f.Series[si]
		for i := range s.X {
			fmt.Fprintf(w, "%s,%g,%g\n", csvEscape(s.Name), s.X[i], s.Y[i])
		}
	}
	return nil
}

func encodeFigureCSV(w io.Writer, id string, f *result.Figure) error {
	fmt.Fprintf(w, "# %s figure %s: %s\n", id, f.Name, f.Title)
	if err := writeFigureCSV(w, f); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

func encodeClaimCSV(w io.Writer, id string, c *result.Claim) error {
	fmt.Fprintf(w, "# %s claim findings\n", id)
	writeRecord(w, []string{"key", "value", "unit", "text", "paper", "pass"})
	for _, f := range c.Findings {
		rec := []string{f.Key, formatFloat(f.Value), f.Unit, f.Text, "", ""}
		if f.Check != nil {
			rec[4] = formatFloat(f.Check.Paper)
			rec[5] = strconv.FormatBool(f.Check.Pass)
		}
		writeRecord(w, rec)
	}
	_, err := fmt.Fprintln(w)
	return err
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeRecord(w io.Writer, cells []string) {
	for i, c := range cells {
		if i > 0 {
			io.WriteString(w, ",")
		}
		io.WriteString(w, csvEscape(c))
	}
	io.WriteString(w, "\n")
}

// csvEscape quotes a cell when it contains a separator, quote, or newline.
func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
