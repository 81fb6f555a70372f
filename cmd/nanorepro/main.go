// Command nanorepro regenerates every table and figure of "Future
// Performance Challenges in Nanometer Design" (DAC 2001) from the model
// stack, plus the paper's quantified in-text claims (C1–C13 of DESIGN.md).
//
// Every run has one path, whatever the format: compute the selected
// artifacts into typed results (internal/result), then encode the results
// in registry order (internal/render) in the format -format selects: the
// classic terminal text, a single JSON document, or CSV blocks.
//
// Artifacts are independent, so they compute concurrently on a bounded
// worker pool (internal/runner). Output order — and every output byte — is
// identical for any -jobs value, because encoding starts only when every
// result is in, and the output is printed when the run finishes. A failed
// artifact does not abort the run; all per-artifact errors are aggregated
// and reported at the end, and the exit status reflects them.
//
// Usage:
//
//	nanorepro                 # print everything, one worker per CPU
//	nanorepro -format json    # the same artifacts as one JSON document
//	nanorepro -format csv     # tables, figures, and claim findings as CSV
//	nanorepro -jobs 1         # serial (same bytes, slower)
//	nanorepro -only t2,f3     # select artifacts (t1,t2,f1..f5,c1..c13)
//	nanorepro -csv out/       # text report + per-figure CSV files
//	nanorepro -plot           # crude terminal plots for the figures
//	nanorepro -v              # append each claim's paper checks
//	nanorepro -scenario scenarios/ext65.json   # compute under a roadmap scenario
//	nanorepro -trace traces/virus.json         # simulate a workload trace
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"

	"nanometer/internal/render"
	"nanometer/internal/repro"
	"nanometer/internal/runner"
	"nanometer/internal/scenario"
	"nanometer/internal/trace"
)

var (
	list    = flag.Bool("list", false, "list artifact ids and exit")
	only    = flag.String("only", "", "comma-separated artifact ids (t1,t2,f1..f5,c1..c13); empty = all")
	format  = flag.String("format", "text", "output format: text, json, or csv")
	csvDir  = flag.String("csv", "", "directory to write figure CSVs into (text format)")
	plot    = flag.Bool("plot", false, "render terminal plots for figures (text format)")
	verbose = flag.Bool("v", false, "append each claim's paper checks (text format)")
	jobs    = flag.Int("jobs", runtime.NumCPU(), "max artifacts computed concurrently (output is identical for any value)")
	meshN   = flag.Int("mesh-n", 0, "power-grid validation mesh nodes per side for c8 (0 = default 41; larger grids refine the 2-D bound)")
	scnPath = flag.String("scenario", "", "roadmap scenario JSON file (see scenarios/); a sweep runs once per variant")
	trcPath = flag.String("trace", "", "workload trace JSON file (see traces/); simulates it and exits non-zero on failed assertions")
)

func main() {
	flag.Parse()
	if *list {
		for _, a := range repro.Artifacts() {
			fmt.Printf("%-4s %s\n", a.ID, a.Title)
		}
		return
	}
	arts, err := repro.Select(strings.Split(*only, ","))
	if err != nil {
		fatal(err)
	}
	// Validate user input at the boundary: a nonsense -mesh-n must fail
	// here with a clear message, not deep inside solver setup.
	if err := repro.ValidateMeshN(*meshN); err != nil {
		fatal(err)
	}
	enc, err := render.NewEncoding(*format, render.Text{CSVDir: *csvDir, Plot: *plot, Verbose: *verbose})
	if errors.Is(err, render.ErrTextOnly) {
		fatal(fmt.Errorf("-csv, -plot, and -v only apply to -format text"))
	}
	if err != nil {
		fatal(fmt.Errorf("unknown -format %q (want text, json, or csv)", *format))
	}
	if *trcPath != "" && (*only != "" || *scnPath != "") {
		fatal(fmt.Errorf("-trace is its own mode; it does not combine with -only or -scenario"))
	}
	// Both the report and the trace mode write figure CSVs into -csv.
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}
	if *trcPath != "" {
		runTrace(*trcPath, enc)
		return
	}
	// The nil scenario (no -scenario flag) is the base roadmap and the
	// byte-identity path; a scenario with a sweep runs once per variant, in
	// grid order.
	variants := []*scenario.Scenario{nil}
	if *scnPath != "" {
		s, err := scenario.Load(*scnPath)
		if err != nil {
			fatal(err)
		}
		if variants, err = s.Variants(); err != nil {
			fatal(err)
		}
	}
	// All variants compute in ONE pool run and encode in grid order. The
	// one-shot report runs to completion by design; there is no
	// cancellation signal to thread.
	grouped, computeErr := repro.ComputeAllVariants(context.Background(), runner.Pool{Workers: *jobs},
		arts, repro.Options{MeshN: *meshN}, variants)
	out := bufio.NewWriter(os.Stdout)
	encodeErr := enc.EncodeReport(out, slices.Concat(grouped...))
	if err := out.Flush(); err != nil {
		fatal(err)
	}
	if err := errors.Join(computeErr, encodeErr); err != nil {
		printFailures(err)
		os.Exit(1)
	}
}

// runTrace is the -trace mode: simulate one workload-trace file (the same
// document POST /api/v1/jobs accepts) and print its findings in the
// selected format. Ctrl-C cancels the simulation mid-trace; a trace whose
// assertions fail exits non-zero after printing each failed check.
func runTrace(path string, enc render.Encoding) {
	tr, err := trace.Load(path)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := tr.Run(ctx, nil)
	if err != nil {
		fatal(err)
	}
	if err := enc.Encode(os.Stdout, res); err != nil {
		fatal(err)
	}
	if failed := trace.FailedChecks(res); len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "nanorepro: trace %s: %d assertion(s) failed:\n", tr.Name, len(failed))
		for _, f := range failed {
			fmt.Fprintf(os.Stderr, "  %s = %.6g, want %.6g ±%.3g rel\n",
				f.Key, f.Value, f.Check.Paper, f.Check.RelTol)
		}
		os.Exit(1)
	}
}

func printFailures(agg error) {
	fmt.Fprintln(os.Stderr, "nanorepro: some artifacts failed:")
	for _, line := range strings.Split(agg.Error(), "\n") {
		fmt.Fprintln(os.Stderr, "  "+line)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nanorepro:", err)
	os.Exit(1)
}
