// nanolint is the repo's custom static-analysis gate: a multichecker over
// the project-specific analyzers in internal/analyzers, which turn the
// invariants the test suite enforces dynamically — the locking contract
// (lockguard), context flow to blocking calls (ctxflow) and bounded metric
// labels (metriclabel) — into compile-time checks.
//
// Usage:
//
//	go run ./cmd/nanolint ./...        # lint the whole module (make lint)
//	go run ./cmd/nanolint -json ./...  # one JSON finding per line (CI)
//	go run ./cmd/nanolint -list        # describe the analyzers
//
// Findings print as file:line:col: <analyzer>: <message> and make the
// process exit 1 (load or internal errors exit 2), so CI failure output
// always names the analyzer that fired. With -json each finding is one
// JSON object per line ({"file","line","col","analyzer","message"}) for
// machine consumers — CI converts these into GitHub annotations. A
// finding can be suppressed with a `//lint:allow <analyzer> <reason>`
// comment on the flagged line or the line directly above it; the reason
// is mandatory by review policy.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"nanometer/internal/analyzers"
)

// jsonFinding is the -json wire shape: flat, one object per line, stable
// field names (CI's annotation converter and any editor integration key
// on these).
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as one JSON object per line")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: nanolint [-list] [-json] [packages]\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers.All() {
			fmt.Printf("%s\n    %s\n", a.Name, a.Doc)
			if a.Scope != nil {
				fmt.Printf("    scope: %v\n", a.Scope)
			}
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analyzers.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	findings := 0
	for _, pkg := range pkgs {
		diags, err := analyzers.RunAnalyzers(pkg, analyzers.All())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, d := range diags {
			if *asJSON {
				if err := enc.Encode(jsonFinding{
					File:     relPath(d.Pos.Filename),
					Line:     d.Pos.Line,
					Col:      d.Pos.Column,
					Analyzer: d.Analyzer,
					Message:  d.Message,
				}); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(2)
				}
			} else {
				fmt.Println(d)
			}
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "nanolint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// relPath shortens an absolute finding path to be relative to the working
// directory when it is inside it — the shape CI's annotation converter
// needs (GitHub maps annotations by repo-relative path) — and leaves any
// other path untouched.
func relPath(p string) string {
	wd, err := os.Getwd()
	if err != nil {
		return p
	}
	rel, err := filepath.Rel(wd, p)
	if err != nil || rel == ".." || len(rel) > 2 && rel[:3] == ".."+string(filepath.Separator) {
		return p
	}
	return rel
}
