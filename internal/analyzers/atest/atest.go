// Package atest is a standard-library stand-in for
// golang.org/x/tools/go/analysis/analysistest: it type-checks a fixture
// directory against the real module and standard library (export data from
// one shared `go list -export -deps` run) and compares an analyzer's
// diagnostics against `// want "regexp"` annotations in the fixture
// source. A fixture line with a want annotation must produce a matching
// diagnostic, and every diagnostic must land on a line that wants it — so
// each fixture fails in both directions: without the analyzer (nothing is
// reported where violations are planted) and with an over-eager one
// (reports appear on clean lines).
package atest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"nanometer/internal/analyzers"
)

// exports is the shared import-path → export-data index, built once per
// test binary. The closure of ./... plus sync, which the fixture imports.
var (
	exportsOnce sync.Once
	exports     map[string]string
	exportsErr  error
)

func sharedExports(t *testing.T) map[string]string {
	t.Helper()
	exportsOnce.Do(func() {
		exports, exportsErr = analyzers.LoadExports(".", "./...", "sync")
	})
	if exportsErr != nil {
		t.Fatalf("loading export data: %v", exportsErr)
	}
	return exports
}

var wantRe = regexp.MustCompile(`//\s*want\s+"((?:[^"\\]|\\.)*)"`)

// Run type-checks every .go file in dir as one package under the given
// import path and checks the analyzer's diagnostics against the fixture's
// want annotations.
func Run(t *testing.T, a *analyzers.Analyzer, dir, pkgPath string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	type want struct {
		file string
		line int
		re   *regexp.Regexp
		hit  bool
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		af, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture %s: %v", path, err)
		}
		files = append(files, af)
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pattern, err := unescapeWant(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want annotation: %v", path, i+1, err)
			}
			re, err := regexp.Compile(pattern)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp: %v", path, i+1, err)
			}
			wants = append(wants, &want{file: path, line: i + 1, re: re})
		}
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}

	imp := analyzers.NewExportImporter(fset, sharedExports(t))
	pkg, err := analyzers.CheckFiles(fset, imp, pkgPath, files)
	if err != nil {
		t.Fatalf("typechecking fixture: %v", err)
	}
	diags, err := analyzers.RunAnalyzers(pkg, []*analyzers.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// unescapeWant handles \" and \\ inside the quoted want pattern.
func unescapeWant(s string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("trailing backslash")
		}
		switch s[i] {
		case '"', '\\':
			b.WriteByte(s[i])
		default:
			// Keep the escape for the regexp engine (\d, \(, …).
			b.WriteByte('\\')
			b.WriteByte(s[i])
		}
	}
	return b.String(), nil
}
