// Package analyzers is the repo's custom lint layer: lockguard, a static
// check of the `// guarded by <mu>` field contract (DESIGN.md §8). Every
// other invariant the layer once checked statically is now a direct test
// at its sites. The check runs inside `go test` (TestRepoIsClean sweeps the
// module; cmd/nanobench's TestNanolintClean sweeps that nested module) and
// is modeled on golang.org/x/tools/go/analysis — Analyzer, Pass, Reportf —
// but implemented on the standard library alone (go/ast + go/types +
// export data from `go list -export`), because this module deliberately
// has no external dependencies.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Run  func(*Pass) error
}

// All returns the full suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Lockguard}
}

// Diagnostic is one finding: a position and a message. The analyzer name
// travels alongside so drivers can print it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// guardRe matches a whole-line `// guarded by <field>` field annotation
// (optional trailing period). The guard must be a plain identifier naming a
// sibling mutex field — lockguard validates the sibling exists.
var guardRe = regexp.MustCompile(`^//\s*guarded by\s+([A-Za-z_][A-Za-z0-9_]*)\s*\.?\s*$`)

// parseGuardDirective parses a `// guarded by mu` field comment, returning
// the guard field name. It must never panic on hostile bytes and accepted
// forms must round-trip (FuzzAllowDirective).
func parseGuardDirective(text string) (guard string, ok bool) {
	m := guardRe.FindStringSubmatch(text)
	if m == nil {
		return "", false
	}
	return m[1], true
}

// RunAnalyzers applies the analyzers to the package and returns the
// findings sorted by position.
func RunAnalyzers(pkg *Package, as []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range as {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			TypesInfo: pkg.TypesInfo,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		diags = append(diags, pass.diags...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
