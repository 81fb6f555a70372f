package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"nanometer/internal/analyzers"
	"nanometer/internal/repro"
)

// quickScale keeps every code path of the workloads and probes but only
// cheap computes: four sub-millisecond artifacts, a 15-node mesh, short
// traces and a small netlist.
func quickScale(t *testing.T) scale {
	t.Helper()
	arts, err := repro.Select([]string{"t1", "t2", "f1", "c9"})
	if err != nil {
		t.Fatal(err)
	}
	return scale{arts: arts, setupReps: 1, meshN: 15, sweepC: "t2", traceIntervals: 20_000, gates: 200}
}

func quickEnv(t *testing.T) *env {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	return &env{seed: 1, sc: quickScale(t), golden: golden, client: newClient()}
}

func readBenchmark(t *testing.T) benchmarkDef {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDef
	if err := readJSONFile(filepath.Join(root, "BENCHMARK.json"), &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// TestBenchmarkDefinition keeps BENCHMARK.json and the command in step:
// the same workloads in the same order, the same run length, a positive
// bound on every end-to-end metric and the largest on setup_s.
func TestBenchmarkDefinition(t *testing.T) {
	def := readBenchmark(t)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	if got := flag.Lookup("seconds").DefValue; got != strconv.Itoa(def.RunSeconds) {
		t.Errorf("-seconds defaults to %s, BENCHMARK.json run_seconds is %d", got, def.RunSeconds)
	}
	largest := 0.0
	for _, m := range def.EndToEnd {
		if m.Bound <= 0 {
			t.Errorf("%s: bound %g is not positive", m.Name, m.Bound)
		}
		if m.Bound > largest {
			largest = m.Bound
		}
	}
	for _, m := range def.EndToEnd {
		if m.Name == "setup_s" && m.Bound != largest {
			t.Errorf("setup_s bound %g is not the largest (%g)", m.Bound, largest)
		}
	}
}

// TestWorkloadsQuick runs every workload traced for half a second at quick
// scale: no op may fail, and the run must emit every metric BENCHMARK.json
// names, with its unit, in the result line it belongs to.
func TestWorkloadsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	def := readBenchmark(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range def.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			r, err := runWorkload(context.Background(), quickEnv(t), w, 500*time.Millisecond, true)
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct() {
				t.Fatalf("%d of %d ops failed; the first: %v", r.failed, r.attempted, r.firstErr)
			}
			for traced, names := range want {
				got := r.outcome(traced).Metrics
				for name, unit := range names {
					if v, ok := got[name]; !ok || v.Unit != unit {
						t.Errorf("trace=%v: %s emitted as %+v (present %v), want unit %s", traced, name, v, ok, unit)
					}
				}
				for name := range got {
					if _, ok := names[name]; !ok {
						t.Errorf("trace=%v: %s is not in BENCHMARK.json", traced, name)
					}
				}
			}
		})
	}
}

// TestWrongReferenceFailsOps proves the output checks are live: with every
// reference deliberately corrupted after set-up, every workload's ops fail.
func TestWrongReferenceFailsOps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			e := quickEnv(t)
			e.corrupt = true
			r, err := runWorkload(context.Background(), e, w, 200*time.Millisecond, false)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed == 0 || r.correct() {
				t.Errorf("%d of %d ops failed against wrong references", r.failed, r.attempted)
			}
		})
	}
}

// TestNanolintClean holds this package to the repository's static-analysis
// suite, which the root module's lint sweep does not reach.
func TestNanolintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the package and its dependencies")
	}
	pkgs, err := analyzers.Load(".", ".")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		diags, err := analyzers.RunAnalyzers(pkg, analyzers.All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
