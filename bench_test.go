// Benchmarks: one sub-benchmark per reproduced table, figure, and
// quantified claim (the experiment index of DESIGN.md §4), plus the solver
// and optimizer kernels as pprof entry points. The design-choice ablations
// of DESIGN.md §13 are pinned by ordinary tests in the model packages, so
// tier-1 `go test ./...` checks them. The repository benchmark itself is
// cmd/nanobench.
package nanometer_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"testing"

	"nanometer/internal/core"
	"nanometer/internal/device"
	"nanometer/internal/dualvth"
	"nanometer/internal/experiments"
	"nanometer/internal/itrs"
	"nanometer/internal/libopt"
	"nanometer/internal/logicsim"
	"nanometer/internal/netlist"
	"nanometer/internal/powergrid"
	"nanometer/internal/rcsim"
	"nanometer/internal/render"
	"nanometer/internal/repro"
	"nanometer/internal/resize"
	"nanometer/internal/runner"
	"nanometer/internal/sta"
	"nanometer/internal/trace"
	"nanometer/internal/units"
	"nanometer/internal/wire"
)

// BenchmarkArtifact regenerates each registry artifact end to end, cache
// bypassed, one sub-benchmark per id — the same ids as nanobench's
// repro.compute_ms.<id> rows. Profile one with -bench 'Artifact/c3'.
func BenchmarkArtifact(b *testing.B) {
	for _, a := range repro.Artifacts() {
		b.Run(a.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := a.ComputeCached(repro.Options{NoCache: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// freshCircuit generates the 30-level netlist the kernel benchmarks share
// (2000 gates; c3–c6 use 3000), clocked at guard × its critical path.
func freshCircuit(b *testing.B, gates int, guard float64) *netlist.Circuit {
	b.Helper()
	tech, err := netlist.NewTechIn(device.BaseLab(), 100, 0.65)
	if err != nil {
		b.Fatal(err)
	}
	p := netlist.DefaultGenParams()
	p.Gates = gates
	p.Levels = 30
	p.ShortPathFraction = 0.5
	p.Seed = 7
	c, err := netlist.Generate(tech, p)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sta.SetPeriodFromCritical(c, guard); err != nil {
		b.Fatal(err)
	}
	return c
}

// --- Core engines under load (library performance benchmarks) -------------------

func BenchmarkSTAFull(b *testing.B) {
	c := freshCircuit(b, 2000, 1.15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sta.Analyze(c)
	}
}

// BenchmarkSTAIncrementalEdit times one trial of c3's rich-library loop:
// gates visited most-slack-first in SlackOrder order, each moved one size
// down with the library's NextBelow and kept or rolled back by TryResize
// (the accept_ratio column, ≈0.87 on this netlist). A fresh slack order
// starts every round, and a converged netlist is restored to its starting
// sizes off the clock. rewrites/trial is the arrivals a trial writes, kept
// or rolled back, and cut_share the share of trials rejected at a seed's
// critical chain (sta.Incremental's counters).
func BenchmarkSTAIncrementalEdit(b *testing.B) {
	lib := libopt.Geometric("rich modern (min 1, ratio 1.3)", 1, 64, 1.3)
	c := freshCircuit(b, 2000, 1.15)
	for i := range c.Gates {
		c.Gates[i].Size = lib.Sizes[sort.SearchFloat64s(lib.Sizes, 8)]
	}
	if _, err := sta.SetPeriodFromCritical(c, 1.15); err != nil {
		b.Fatal(err)
	}
	start := c.Clone()
	inc := sta.NewIncremental(c)
	order, next, moved := inc.SlackOrder(), 0, 0
	accepted, rewrites, cuts := 0, 0, 0
	b.ResetTimer()
	for n := 0; n < b.N; {
		if next == len(order) {
			if moved == 0 {
				b.StopTimer()
				for i := range c.Gates {
					c.Gates[i].Size = start.Gates[i].Size
				}
				rewrites, cuts = rewrites+inc.Rewrites, cuts+inc.Cuts
				inc = sta.NewIncremental(c)
				order = inc.SlackOrder()
				b.StartTimer()
			} else {
				order = inc.SlackOrder()
			}
			next, moved = 0, 0
		}
		g := &c.Gates[order[next]]
		next++
		size, ok := lib.NextBelow(g.Size)
		if !ok {
			continue
		}
		old := g.Size
		g.Size = size
		if inc.TryResize(g.ID) {
			moved++
			accepted++
		} else {
			g.Size = old
		}
		n++
	}
	rewrites, cuts = rewrites+inc.Rewrites, cuts+inc.Cuts
	b.ReportMetric(float64(accepted)/float64(b.N), "accept_ratio")
	b.ReportMetric(float64(rewrites)/float64(b.N), "rewrites/trial")
	b.ReportMetric(float64(cuts)/float64(b.N), "cut_share")
}

// BenchmarkLibrarySizing times one libopt.SizeWithLibrary pass per c3
// library on c3's oversized netlist (the default circuit setup, every gate
// at size 8). c3 sizes its three libraries concurrently, so its wall time
// is the continuous pass, which BenchmarkArtifact/c3 hides behind the
// fork. Each pass sizes a fresh clone, made off the clock.
func BenchmarkLibrarySizing(b *testing.B) {
	s := experiments.DefaultCircuitSetup()
	base := freshCircuit(b, s.Gates, s.PeriodGuard)
	for i := range base.Gates {
		base.Gates[i].Size = 8
	}
	if _, err := sta.SetPeriodFromCritical(base, s.PeriodGuard); err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		lib  libopt.Library
	}{
		{"coarse", libopt.Geometric("coarse legacy (min 4, ratio 2)", 4, 64, 2)},
		{"rich", libopt.Geometric("rich modern (min 1, ratio 1.3)", 1, 64, 1.3)},
		{"continuous", libopt.Continuous(0.25)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := base.Clone()
				b.StartTimer()
				if _, err := libopt.SizeWithLibrary(c, tc.lib, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCombinedFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := freshCircuit(b, 2000, 1.15)
		if _, err := core.RunFlow(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDualVthAssign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := freshCircuit(b, 2000, 1.0)
		if _, err := dualvth.Assign(c, dualvth.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResizeDownsize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := freshCircuit(b, 2000, 1.15)
		if _, err := resize.Downsize(c, resize.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetlistGenerate(b *testing.B) {
	tech, err := netlist.NewTechIn(device.BaseLab(), 100, 0.65)
	if err != nil {
		b.Fatal(err)
	}
	p := netlist.DefaultGenParams()
	p.Gates = 4000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i)
		if _, err := netlist.Generate(tech, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeviceIonSolve(b *testing.B) {
	d := device.BaseLab().MustForNode(35)
	for i := 0; i < b.N; i++ {
		if _, err := d.SolveVthForIon(750, 0.6, units.RoomTemperature); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel harness & solver kernels ------------------------------------------

// BenchmarkMeshSolveGrid runs the full powergrid path as c8 does: rail
// sizing, mesh discretization and Mesh.Solve, which after the first
// iteration scales the stored unit drop for n = 63 instead of solving.
func BenchmarkMeshSolveGrid(b *testing.B) {
	node := itrs.Base().MustNode(35)
	spec := powergrid.DefaultSpec(node, node.BumpPitchMinM)
	for i := 0; i < b.N; i++ {
		if _, err := powergrid.PessimisticRatio(spec, 63); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullReport regenerates the entire nanorepro report (tables,
// figures, claims) the way the CLI does: compute on the runner pool at
// several worker counts, then encode the text report. The
// jobs=1 case is the serial baseline; speedup at jobs>1 scales with
// available cores (GOMAXPROCS) since the artifacts are independent.
func BenchmarkFullReport(b *testing.B) {
	counts := []int{1, 2, runtime.NumCPU()}
	if runtime.NumCPU() <= 2 {
		counts = counts[:2]
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("jobs=%d", workers), func(b *testing.B) {
			// NoCache: this benchmark measures the model stack, not the
			// memoized path (BenchmarkArtifactCache covers that).
			text, err := render.NewEncoding("text", render.Text{})
			if err != nil {
				b.Fatal(err)
			}
			pool := runner.Pool{Workers: workers}
			for i := 0; i < b.N; i++ {
				results, err := repro.ComputeAllCtx(context.Background(), pool, repro.Artifacts(), repro.Options{NoCache: true})
				if err != nil {
					b.Fatal(err)
				}
				if err := text.EncodeReport(io.Discard, results); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceRun simulates one 2 M-interval trace in the document shape
// nanobench's trace_jobs submits (50 nm node, dt 10 ms): a power virus and
// a seeded ≈75 % workload. The thermal/DTM/DVFS interval loop and the
// power series it consumes are the whole cost. The series is filled one
// block ahead on a second goroutine, so a run may use two cores and its
// time depends on -cpu; profile it with -bench 'TraceRun/workload'
// -cpuprofile.
func BenchmarkTraceRun(b *testing.B) {
	for _, tc := range []struct{ name, gen string }{
		{"virus", `{"kind":"virus","intervals":2000000}`},
		{"workload", `{"kind":"workload","intervals":2000000,"typical_fraction":0.75,"seed":7}`},
	} {
		b.Run(tc.name, func(b *testing.B) {
			tr, err := trace.Parse([]byte(`{"name":"bench","dt_seconds":0.01,"node_nm":50,"generator":` + tc.gen + `}`))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := tr.Run(context.Background(), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Validation benches: the numerical ground truths against the analytic layer.

func BenchmarkValidationRCSim(b *testing.B) {
	w, err := wire.ForNodeIn(itrs.Base(), 50, wire.Global)
	if err != nil {
		b.Fatal(err)
	}
	l := &rcsim.Line{
		RPerM: w.RPerM(), CPerM: w.CPerM(),
		LengthM: 5e-3, Segments: 64,
		DriverOhms: 500, LoadF: 10e-15,
	}
	for i := 0; i < b.N; i++ {
		sim, err := l.Delay50()
		if err != nil {
			b.Fatal(err)
		}
		analytic := w.DrivenDelay(5e-3, 500, 10e-15)
		if r := analytic / sim; r < 0.8 || r > 1.3 {
			b.Fatalf("analytic layer diverged from the simulator: ×%.2f", r)
		}
	}
}

func BenchmarkValidationLogicSim(b *testing.B) {
	c := freshCircuit(b, 2000, 1.15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probMAE, _, err := logicsim.CompareWithModel(c, logicsim.Options{Cycles: 2048, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if probMAE > 0.05 {
			b.Fatalf("activity model diverged: MAE %.3f", probMAE)
		}
	}
}
