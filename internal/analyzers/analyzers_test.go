package analyzers_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"nanometer/internal/analyzers"
	"nanometer/internal/analyzers/atest"
)

// The fixture plants violations next to clean shapes, so the test fails in
// both directions: a gutted analyzer reports nothing where the fixture
// wants a diagnostic, and an over-eager one reports on the clean
// (idiomatic or annotated) shapes.

func TestLockguardFixture(t *testing.T) {
	atest.Run(t, analyzers.Lockguard, "testdata/lockguard", "nanometer/internal/fixture")
}

// TestViolationClassesFailLint is the meta-test for the analyzers: for
// each violation class, a minimal source file reintroducing it is run
// through the FULL suite — the same analyzer set TestRepoIsClean runs —
// and must produce at least one finding from the expected analyzer. This
// pins the wiring, not just the analyzers: an analyzer dropped from All()
// fails here even though its own fixture test still passes.
func TestViolationClassesFailLint(t *testing.T) {
	cases := []struct {
		analyzer string
		src      string
	}{
		{"lockguard", `package fixture
import "sync"
type box struct {
	mu sync.Mutex
	n  int // guarded by mu
}
func (b *box) peek() int { return b.n }
`},
	}
	exports, err := analyzers.LoadExports(".", "./...", "sync")
	if err != nil {
		t.Fatalf("loading export data: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			fset := token.NewFileSet()
			af, err := parser.ParseFile(fset, tc.analyzer+".go", tc.src, parser.ParseComments)
			if err != nil {
				t.Fatalf("parsing violation source: %v", err)
			}
			imp := analyzers.NewExportImporter(fset, exports)
			pkg, err := analyzers.CheckFiles(fset, imp, "nanometer/internal/fixture", []*ast.File{af})
			if err != nil {
				t.Fatalf("typechecking violation source: %v", err)
			}
			diags, err := analyzers.RunAnalyzers(pkg, analyzers.All())
			if err != nil {
				t.Fatalf("running suite: %v", err)
			}
			found := false
			for _, d := range diags {
				if d.Analyzer == tc.analyzer {
					found = true
				}
			}
			if !found {
				t.Errorf("reintroducing the %s violation class produced no %s finding (got %v)",
					tc.analyzer, tc.analyzer, diags)
			}
		})
	}
}

// TestRepoIsClean runs the full suite over the whole module, so a
// violation introduced anywhere fails `go test`. It is the lint gate:
// `go test -run TestRepoIsClean ./internal/analyzers` runs it alone.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint run skipped in -short mode")
	}
	pkgs, err := analyzers.Load(".", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded zero packages")
	}
	for _, pkg := range pkgs {
		diags, err := analyzers.RunAnalyzers(pkg, analyzers.All())
		if err != nil {
			t.Fatalf("running suite on %s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
