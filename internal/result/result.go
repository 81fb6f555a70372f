// Package result defines the typed output of the reproduction's compute
// layer. Every artifact (table, figure, quantified claim) computes into a
// Result — an ordered list of Table, Figure, and Claim items — instead of
// pre-formatted text, so the same computation can be encoded as a terminal
// report, JSON, or CSV (internal/render), cached, diffed, or served. All
// types round-trip through encoding/json losslessly.
package result

import (
	"fmt"
	"math"
)

// Result is the complete typed output of one artifact.
type Result struct {
	// ID is the stable artifact ID (t1, f3, c8, ...).
	ID string `json:"id"`
	// Title is the registry title used in listings.
	Title string `json:"title"`
	// Scenario names the roadmap scenario the result was computed under.
	// Empty means the base ITRS-2000 roadmap — the byte-identity case, so
	// every encoder must emit nothing for it.
	Scenario string `json:"scenario,omitempty"`
	// Items are the artifact's outputs in emission order.
	Items []Item `json:"items"`
}

// Report is a set of artifact results — the JSON shape of a full
// reproduction run.
type Report struct {
	Artifacts []*Result `json:"artifacts"`
}

// Kind discriminates the item payloads.
type Kind string

const (
	KindTable  Kind = "table"
	KindFigure Kind = "figure"
	KindClaim  Kind = "claim"
)

// Item is one element of a Result: exactly one of Table, Figure, or Claim
// is set, matching Kind.
type Item struct {
	Kind   Kind    `json:"kind"`
	Table  *Table  `json:"table,omitempty"`
	Figure *Figure `json:"figure,omitempty"`
	Claim  *Claim  `json:"claim,omitempty"`
}

// AddTable appends a table item.
func (r *Result) AddTable(t *Table) { r.Items = append(r.Items, Item{Kind: KindTable, Table: t}) }

// AddFigure appends a figure item.
func (r *Result) AddFigure(f *Figure) { r.Items = append(r.Items, Item{Kind: KindFigure, Figure: f}) }

// AddClaim appends a claim item.
func (r *Result) AddClaim(c *Claim) { r.Items = append(r.Items, Item{Kind: KindClaim, Claim: c}) }

// Validate checks structural invariants: every item carries exactly the
// payload its Kind names, and every figure has at least one series, each
// with as many X as Y values. Encoders rely on this holding.
func (r *Result) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("result: missing artifact ID")
	}
	for i, it := range r.Items {
		n := 0
		if it.Table != nil {
			n++
		}
		if it.Figure != nil {
			n++
		}
		if it.Claim != nil {
			n++
		}
		if n != 1 {
			return fmt.Errorf("result %s: item %d has %d payloads, want exactly 1", r.ID, i, n)
		}
		switch it.Kind {
		case KindTable:
			if it.Table == nil {
				return fmt.Errorf("result %s: item %d kind table without table payload", r.ID, i)
			}
		case KindFigure:
			if it.Figure == nil {
				return fmt.Errorf("result %s: item %d kind figure without figure payload", r.ID, i)
			}
			if len(it.Figure.Series) == 0 {
				return fmt.Errorf("result %s: item %d figure has no series", r.ID, i)
			}
			for _, s := range it.Figure.Series {
				if len(s.X) != len(s.Y) {
					return fmt.Errorf("result %s: item %d series %q has %d x and %d y values", r.ID, i, s.Name, len(s.X), len(s.Y))
				}
			}
		case KindClaim:
			if it.Claim == nil {
				return fmt.Errorf("result %s: item %d kind claim without claim payload", r.ID, i)
			}
		default:
			return fmt.Errorf("result %s: item %d has unknown kind %q", r.ID, i, it.Kind)
		}
	}
	return nil
}

// Table is a titled grid of pre-formatted cells with footnotes. Cells stay
// strings — the compute layer owns significant digits and unit scaling —
// but headers, rows, and notes are separated so machine consumers never
// parse aligned text.
type Table struct {
	Title   string     `json:"title,omitempty"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Figure is a named set of series sharing axes. Name is the stable file
// base the CSV encoders use (e.g. "figure2" → figure2.csv).
type Figure struct {
	Name   string   `json:"name"`
	Title  string   `json:"title"`
	XLabel string   `json:"x_label,omitempty"`
	YLabel string   `json:"y_label,omitempty"`
	LogX   bool     `json:"log_x,omitempty"`
	LogY   bool     `json:"log_y,omitempty"`
	Series []Series `json:"series"`
}

// Series is one named (x, y) point sequence; X and Y are parallel.
type Series struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

// NewSeries returns an empty series with room for n points, X and Y in
// one allocation, so n calls to Add never regrow them.
func NewSeries(name string, n int) Series {
	xy := make([]float64, 2*n)
	return Series{Name: name, X: xy[:0:n], Y: xy[n:n]}
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Claim is an ordered list of key/value findings — the machine-readable
// form of one of the paper's quantified in-text claims.
type Claim struct {
	Findings []Finding `json:"findings"`
}

// Finding is one measured quantity of a claim. Numeric findings carry
// Value (+Unit); non-numeric ones (technique names, cooling classes,
// booleans) carry Text. Findings an Expect names carry a Check recording
// the expected value and whether the reproduction hits it.
type Finding struct {
	Key   string  `json:"key"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
	Text  string  `json:"text,omitempty"`
	Check *Check  `json:"check,omitempty"`
}

// Check is a pass/fail comparison of a computed value against an Expect's
// value: the paper's quoted number, a scenario's or a trace's.
type Check struct {
	// Paper is the expected value, in the finding's unit.
	Paper float64 `json:"paper"`
	// RelTol is the allowed relative deviation (the paper's numbers are
	// "≈" and ranges, not five-digit constants).
	RelTol float64 `json:"rel_tol"`
	// Pass reports |value − Paper| ≤ RelTol·|Paper|.
	Pass bool `json:"pass"`
}

// NewCheck evaluates value against an expected one.
func NewCheck(value, paper, relTol float64) *Check {
	return &Check{Paper: paper, RelTol: relTol, Pass: math.Abs(value-paper) <= relTol*math.Abs(paper)}
}

// Num appends a numeric finding and returns the claim for chaining.
func (c *Claim) Num(key string, v float64, unit string) *Claim {
	c.Findings = append(c.Findings, Finding{Key: key, Value: v, Unit: unit})
	return c
}

// Str appends a textual finding.
func (c *Claim) Str(key, s string) *Claim {
	c.Findings = append(c.Findings, Finding{Key: key, Text: s})
	return c
}

// Bool appends a boolean finding (Text "true"/"false", Value 1/0).
func (c *Claim) Bool(key string, b bool) *Claim {
	f := Finding{Key: key, Text: "false"}
	if b {
		f.Value, f.Text = 1, "true"
	}
	c.Findings = append(c.Findings, f)
	return c
}

// Find returns the finding for key.
func (c *Claim) Find(key string) (Finding, bool) {
	for _, f := range c.Findings {
		if f.Key == key {
			return f, true
		}
	}
	return Finding{}, false
}

// Expect is one check on a claim finding: the finding keyed Check must land
// within RelTol of Value, in the finding's unit. The paper's quoted numbers,
// a scenario's expectations and a trace's assertions are all Expects, and
// ApplyChecks is the one place any of them becomes a Check.
type Expect struct {
	Check  string  `json:"check"`
	Value  float64 `json:"value"`
	RelTol float64 `json:"rel_tol"`
}

// Validate checks an Expect read from outside the program: a key is set,
// RelTol lies in (0, 10] and Value is finite.
func (e Expect) Validate() error {
	if e.Check == "" {
		return fmt.Errorf("check key missing")
	}
	if !(e.RelTol > 0) || e.RelTol > 10 {
		return fmt.Errorf("check %s: rel_tol %g outside (0, 10]", e.Check, e.RelTol)
	}
	if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
		return fmt.Errorf("check %s: value must be finite", e.Check)
	}
	return nil
}

// ApplyChecks attaches a Check for each expectation to every claim
// finding with its key. No source of expectations names one key twice
// (scenario and trace validation reject it, and a test pins the paper
// table), since the later check would silently replace the earlier. An
// expectation that matches no finding is an error, so a typo in a key
// fails loudly instead of never checking anything.
func (r *Result) ApplyChecks(expect []Expect) error {
	for _, e := range expect {
		matched := false
		for _, it := range r.Items {
			if it.Claim == nil {
				continue
			}
			for i := range it.Claim.Findings {
				if f := &it.Claim.Findings[i]; f.Key == e.Check {
					f.Check = NewCheck(f.Value, e.Value, e.RelTol)
					matched = true
				}
			}
		}
		if !matched {
			return fmt.Errorf("result %s: check %s names no finding", r.ID, e.Check)
		}
	}
	return nil
}

// FailedChecks lists the claim findings whose check does not pass, in item
// order — the regression surface the CLI's exit status watches.
func (r *Result) FailedChecks() []Finding {
	var out []Finding
	for _, it := range r.Items {
		if it.Claim == nil {
			continue
		}
		for _, f := range it.Claim.Findings {
			if f.Check != nil && !f.Check.Pass {
				out = append(out, f)
			}
		}
	}
	return out
}
