package analyzers

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path      string
	Fset      *token.FileSet
	Syntax    []*ast.File
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load type-checks the packages matching the patterns (relative to dir,
// which must sit inside a module) and returns them ready for analysis.
//
// It is a stdlib-only stand-in for golang.org/x/tools/go/packages: one
// `go list -export -deps` invocation enumerates the packages and has the
// go command produce export data for every dependency, then each target
// package is parsed from source and type-checked against that export data
// via the gc importer. Only the module's own packages are returned (and
// only their non-test files — test files drop errors legitimately and are
// exercised by `go test` itself, not by the lint gate).
func Load(dir string, patterns ...string) ([]*Package, error) {
	root, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	wanted, err := goListTargets(root, patterns)
	if err != nil {
		return nil, err
	}
	listed, err := goList(root, patterns)
	if err != nil {
		return nil, err
	}

	exports := map[string]string{}
	var targets []listedPackage
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("analyzers: load %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if wanted[p.ImportPath] {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := NewExportImporter(fset, exports)
	var pkgs []*Package
	for _, p := range targets {
		pkg, err := checkPackage(fset, imp, p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goListTargets expands the patterns without -deps, so the analysis
// targets are exactly the packages the user named — the -deps run that
// produces export data drags the whole dependency closure in, and deps
// must be importable but not analyzed.
func goListTargets(root string, patterns []string) (map[string]bool, error) {
	args := append([]string{"list"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analyzers: go list: %v\n%s", err, stderr.String())
	}
	wanted := map[string]bool{}
	for _, line := range bytes.Split(bytes.TrimSpace(out), []byte("\n")) {
		if len(line) > 0 {
			wanted[string(line)] = true
		}
	}
	return wanted, nil
}

// NewExportImporter returns a types.Importer resolving import paths
// through the export-data files produced by `go list -export`.
func NewExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analyzers: no export data for %q", path)
		}
		return os.Open(f)
	})
}

// LoadExports runs `go list -export -deps` for the patterns and returns
// import path → export-data file for every package in the closure. The
// fixture test harness uses this to type-check testdata packages against
// the real module and standard library.
func LoadExports(dir string, patterns ...string) (map[string]string, error) {
	root, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	listed, err := goList(root, patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

func goList(root string, patterns []string) ([]listedPackage, error) {
	args := []string{"list", "-e", "-export", "-deps",
		"-json=Dir,ImportPath,Name,Export,GoFiles,Module,Error"}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analyzers: go list: %v\n%s", err, stderr.String())
	}
	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analyzers: decode go list output: %w", err)
		}
		listed = append(listed, p)
	}
	return listed, nil
}

func moduleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", errors.New("analyzers: no go.mod found above " + abs)
		}
		d = parent
	}
}

func checkPackage(fset *token.FileSet, imp types.Importer, p listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		af, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analyzers: parse %s: %w", name, err)
		}
		files = append(files, af)
	}
	return CheckFiles(fset, imp, p.ImportPath, files)
}

// CheckFiles type-checks a parsed file set as one package. Shared by the
// loader and the fixture harness.
func CheckFiles(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(path, fset, files, info); err != nil {
		return nil, fmt.Errorf("analyzers: typecheck %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Syntax: files, TypesInfo: info}, nil
}
