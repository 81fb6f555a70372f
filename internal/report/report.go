// Package report renders the experiment outputs: fixed-width ASCII tables
// for terminals and CSV for downstream plotting.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	// Notes are printed under the table.
	Notes []string
}

// AddRow appends a row of formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = displayWidth(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && displayWidth(c) > widths[i] {
				widths[i] = displayWidth(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for k := displayWidth(c); k < widths[i]; k++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", maxInt(total-2, 4)))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	b.WriteByte('\n')
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	if _, err := t.WriteTo(&b); err != nil {
		return err.Error()
	}
	return b.String()
}

// displayWidth approximates terminal width (runes, not bytes — the tables
// carry µ, θ, °).
func displayWidth(s string) int { return len([]rune(s)) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Series is a named (x, y) sequence for figure reproduction.
type Series struct {
	Name string
	X, Y []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Figure is a set of series sharing axes.
type Figure struct {
	Title, XLabel, YLabel string
	LogX, LogY            bool
	Series                []*Series
}

// WriteCSV emits the figure as wide-format CSV (x, one column per series).
// Series may have different x grids; rows are emitted per series block when
// grids differ.
func (f *Figure) WriteCSV(w io.Writer) error {
	aligned := true
	for _, s := range f.Series[1:] {
		if len(s.X) != len(f.Series[0].X) {
			aligned = false
			break
		}
		for i := range s.X {
			if s.X[i] != f.Series[0].X[i] {
				aligned = false
				break
			}
		}
	}
	if aligned && len(f.Series) > 0 {
		fmt.Fprintf(w, "%s", csvEscape(f.XLabel))
		for _, s := range f.Series {
			fmt.Fprintf(w, ",%s", csvEscape(s.Name))
		}
		fmt.Fprintln(w)
		for i := range f.Series[0].X {
			fmt.Fprintf(w, "%g", f.Series[0].X[i])
			for _, s := range f.Series {
				fmt.Fprintf(w, ",%g", s.Y[i])
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	// Long format.
	fmt.Fprintln(w, "series,x,y")
	for _, s := range f.Series {
		for i := range s.X {
			fmt.Fprintf(w, "%s,%g,%g\n", csvEscape(s.Name), s.X[i], s.Y[i])
		}
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// RenderASCII draws a crude terminal plot of the figure (for the CLI tools'
// --plot mode): one character column per x bucket, letters per series.
func (f *Figure) RenderASCII(w io.Writer, width, height int) {
	if width < 20 {
		width = 60
	}
	if height < 8 {
		height = 16
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	xmin, xmax, ymin, ymax := f.bounds()
	tx := func(v float64) float64 { return v }
	ty := func(v float64) float64 { return v }
	if f.LogX && xmin > 0 {
		tx = math.Log10
	}
	if f.LogY && ymin > 0 {
		ty = math.Log10
	}
	xmin, xmax, ymin, ymax = tx(xmin), tx(xmax), ty(ymin), ty(ymax)
	if xmax == xmin || ymax == ymin {
		fmt.Fprintln(w, "(degenerate figure)")
		return
	}
	marks := "abcdefghijklmnopqrstuvwxyz"
	for si, s := range f.Series {
		m := marks[si%len(marks)]
		for i := range s.X {
			fx := (tx(s.X[i]) - xmin) / (xmax - xmin)
			fy := (ty(s.Y[i]) - ymin) / (ymax - ymin)
			col := int(fx * float64(width-1))
			row := height - 1 - int(fy*float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = m
			}
		}
	}
	fmt.Fprintf(w, "%s\n", f.Title)
	for _, line := range grid {
		fmt.Fprintf(w, "|%s\n", string(line))
	}
	fmt.Fprintf(w, "+%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, " x: %s [%.3g, %.3g]   y: %s [%.3g, %.3g]\n", f.XLabel, xmin, xmax, f.YLabel, ymin, ymax)
	for si, s := range f.Series {
		fmt.Fprintf(w, "   %c = %s\n", marks[si%len(marks)], s.Name)
	}
}

func (f *Figure) bounds() (xmin, xmax, ymin, ymax float64) {
	first := true
	for _, s := range f.Series {
		for i := range s.X {
			if first {
				xmin, xmax, ymin, ymax = s.X[i], s.X[i], s.Y[i], s.Y[i]
				first = false
				continue
			}
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	return
}
