// Command nanobench is the repository's benchmark. It runs five workloads
// against the reproduction — the full CLI report, a cold and a warm
// daemon, scenario sweeps and trace jobs — checks the output of every
// operation, and prints each end-to-end metric and the op timing as
//
//	workload metric value unit (n=samples)
//
// A traced run (-trace 1) also records spans around each op, artifact
// compute and encode, times every layer from outside on the artifacts' own
// inputs, and prints the per-layer metrics. BENCHMARK.json at the
// repository root names the workloads and metrics and bounds each
// end-to-end metric; README.md next to this file explains them.
//
// Usage, from the repository root:
//
//	sh cmd/nanobench/run.sh --workload report --seed 1 --seconds 20 --trace 0
//	sh cmd/nanobench/run.sh -seed 1 -sets 2 -runs 5 -trace 1 -out ledger.json
//	sh cmd/nanobench/run.sh -compare BASE.json NEW.json
//
// With -workload it runs that workload in its own process and prints, as
// its last line, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics, or in a traced run the per-layer ones. Without it
// the command re-executes itself once per workload and run, so that no
// cache, counter or heap state crosses from one run into the next, and
// writes every run's result line to the -out ledger. -compare reads two
// ledgers (or one with two sets) and judges each metric against its bound.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

var (
	workloadName = flag.String("workload", "", "run this one workload in this process (empty: every workload, each run in a child process)")
	seed         = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds      = flag.Float64("seconds", 20, "measured seconds per run")
	traceFlag    = flag.Int("trace", 0, "1: traced run, reporting the per-layer metrics (without -workload: add one traced run per workload)")
	traceDir     = flag.String("trace-dir", "", "write spans.json and layers.json of traced runs under this directory")
	out          = flag.String("out", "", "write the ledger of every run to this file")
	runs         = flag.Int("runs", 1, "untraced runs per workload in each set")
	sets         = flag.Int("sets", 1, "sets of untraced runs; the runs of all sets take the seeds seed, seed+1, ... in turn")
	compare      = flag.Bool("compare", false, "compare the ledgers named as arguments: BASE.json NEW.json, or one ledger's set 1 with its set 2")
)

func main() {
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = runCompare(os.Stdout, flag.Args())
	case *traceFlag != 0 && *traceFlag != 1:
		err = fmt.Errorf("-trace is 0 or 1, not %d", *traceFlag)
	case *workloadName != "":
		err = runOne(context.Background(), *workloadName)
	default:
		err = runAll(context.Background())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nanobench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its metrics and
// result line.
func runOne(ctx context.Context, name string) error {
	w, ok := lookupWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	golden, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return err
	}
	e := &env{seed: *seed, sc: fullScale(), golden: golden, client: newClient()}
	traced := *traceFlag == 1
	r, err := runWorkload(ctx, e, w, time.Duration(*seconds*float64(time.Second)), traced)
	if err != nil {
		return err
	}
	if traced && *traceDir != "" {
		if err := writeTraceFiles(*traceDir, r); err != nil {
			return err
		}
	}
	if err := r.print(os.Stdout, traced); err != nil {
		return err
	}
	if !r.correct() {
		return fmt.Errorf("%s: %d of %d ops failed; the first: %v", name, r.failed, r.attempted, r.firstErr)
	}
	return nil
}

// runAll runs every workload -runs times in each of -sets sets, then once
// traced with -trace 1, each run in a child process, and writes the ledger.
func runAll(ctx context.Context) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	l := ledger{Seconds: *seconds, Host: host{
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
	}}
	failed := 0
	child := func(set int, w string, seed int64, trace int) {
		args := []string{"-workload", w, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
		if trace == 1 && *traceDir != "" {
			args = append(args, "-trace-dir", filepath.Join(*traceDir, w))
		}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stderr = os.Stderr
		stdout, runErr := cmd.Output()
		lines := bytes.Split(bytes.TrimSuffix(stdout, []byte("\n")), []byte("\n"))
		var o outcome
		if err := decodeStrict(lines[len(lines)-1], &o); err != nil {
			fmt.Fprintf(os.Stderr, "nanobench: %s seed %d: no result line (%v)\n", w, seed, runErr)
			failed++
			return
		}
		os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
		fmt.Println()
		if runErr != nil || !o.Correct {
			failed++
		}
		l.Runs = append(l.Runs, ledgerRun{Set: set, Workload: w, Seed: seed, Trace: trace, outcome: o})
	}
	next := *seed
	for set := 1; set <= *sets; set++ {
		for i := 0; i < *runs; i++ {
			for _, w := range workloads {
				child(set, w.name, next, 0)
			}
			next++
		}
	}
	if *traceFlag == 1 {
		for _, w := range workloads {
			child(0, w.name, *seed, 1)
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(l, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	return nil
}
