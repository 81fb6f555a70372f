// Benchmarks: one per reproduced table, figure, and quantified claim (the
// experiment index of DESIGN.md §4), plus the design-choice ablations of
// DESIGN.md §5. Each benchmark regenerates its artifact end to end, so
// `go test -bench=. -benchmem` doubles as the full reproduction run with
// per-artifact cost accounting.
package nanometer_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"nanometer/internal/core"
	"nanometer/internal/cvs"
	"nanometer/internal/device"
	"nanometer/internal/dualvth"
	"nanometer/internal/experiments"
	"nanometer/internal/gate"
	"nanometer/internal/itrs"
	"nanometer/internal/logicsim"
	"nanometer/internal/mathx"
	"nanometer/internal/netlist"
	"nanometer/internal/powergrid"
	"nanometer/internal/rcsim"
	"nanometer/internal/repeater"
	"nanometer/internal/repro"
	"nanometer/internal/resize"
	"nanometer/internal/runner"
	"nanometer/internal/sta"
	"nanometer/internal/units"
	"nanometer/internal/wire"
)

// --- Tables -------------------------------------------------------------------

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Table1In(device.BaseLab()); len(rows) != 9 {
			b.Fatalf("bad row count %d", len(rows))
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2In(device.BaseLab())
		if err != nil || len(rows) != 7 {
			b.Fatalf("table2: %v (%d rows)", err, len(rows))
		}
	}
}

// --- Figures ------------------------------------------------------------------

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1In(device.BaseLab(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2In(device.BaseLab()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure3And4In(device.BaseLab(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	// Figure 4 shares the sweep with Figure 3; benchmarked separately at a
	// finer supply grid to expose the policy-solver cost.
	grid := make([]float64, 41)
	for i := range grid {
		grid[i] = 0.2 + 0.01*float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure3And4In(device.BaseLab(), grid); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5In(device.BaseLab()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Claims -------------------------------------------------------------------

func BenchmarkClaimDTM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DTMIn(device.BaseLab(), 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClaimSignaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SignalingIn(device.BaseLab()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClaimLibopt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunLibraryIn(device.BaseLab(), experiments.DefaultCircuitSetup()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClaimCVS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunCVSIn(device.BaseLab(), experiments.DefaultCircuitSetup()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClaimDualVth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunDualVthIn(device.BaseLab(), experiments.DefaultCircuitSetup()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClaimResize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunResizeVsVddIn(device.BaseLab(), experiments.DefaultCircuitSetup()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClaimVddFloor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunVddFloorIn(device.BaseLab()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClaimBumps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunBumpsNIn(device.BaseLab(), experiments.DefaultMeshN); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClaimTransients(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTransientsIn(device.BaseLab()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) ---------------------------------------------------

// Ablation 1: electrical vs physical oxide thickness in the Vth solve.
func BenchmarkAblationMetalGate(b *testing.B) {
	d := device.BaseLab().MustForNode(35)
	node := itrs.Base().MustNode(35)
	for i := 0; i < b.N; i++ {
		if _, err := d.SolveVthForIon(node.IonTargetAPerM, node.Vdd, units.RoomTemperature); err != nil {
			b.Fatal(err)
		}
		if _, err := d.MetalGate().SolveVthForIon(node.IonTargetAPerM, node.Vdd, units.RoomTemperature); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation 2: DIBL on/off in the leakage model.
func BenchmarkAblationDIBL(b *testing.B) {
	d := device.BaseLab().MustForNode(35)
	noDIBL := *d
	noDIBL.DIBL = 0
	for i := 0; i < b.N; i++ {
		withD := d.IoffPerWidth(0.3, units.RoomTemperature)
		without := noDIBL.IoffPerWidth(0.3, units.RoomTemperature)
		if withD >= without {
			b.Fatalf("DIBL must reduce Ioff at reduced drain bias: %g vs %g", withD, without)
		}
	}
}

// Ablation 3: subthreshold-swing temperature scaling in Figure 1.
func BenchmarkAblationSwingTemperature(b *testing.B) {
	g, err := gate.ReferenceInverterIn(device.BaseLab(), 50)
	if err != nil {
		b.Fatal(err)
	}
	node := itrs.Base().MustNode(50)
	for i := 0; i < b.N; i++ {
		hot := g.StaticOverDynamic(0.1, node.ClockHz, 0.6, units.CelsiusToKelvin(85))
		cold := g.StaticOverDynamic(0.1, node.ClockHz, 0.6, units.RoomTemperature)
		if hot <= cold {
			b.Fatalf("85 °C must worsen the static share: %g vs %g", hot, cold)
		}
	}
}

func freshCircuit(b *testing.B, guard float64) *netlist.Circuit {
	b.Helper()
	tech, err := netlist.NewTechIn(device.BaseLab(), 100, 0.65)
	if err != nil {
		b.Fatal(err)
	}
	p := netlist.DefaultGenParams()
	p.Gates = 2000
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

// Ablation 4/5: level-converter cost and clustering in CVS.
func BenchmarkAblationCVSClustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		clustered := freshCircuit(b, 1.15)
		if _, err := cvs.Assign(clustered, cvs.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
		unclustered := freshCircuit(b, 1.15)
		opts := cvs.DefaultOptions()
		opts.Clustering = false
		if _, err := cvs.Assign(unclustered, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation 6: hot-spot factor in Figure 5.
func BenchmarkAblationHotspot(b *testing.B) {
	node := itrs.Base().MustNode(35)
	for i := 0; i < b.N; i++ {
		uniform := powergrid.DefaultSpec(node, node.BumpPitchMinM)
		uniform.HotspotFactor = 1
		hot := powergrid.DefaultSpec(node, node.BumpPitchMinM)
		su, err := uniform.SizeRails()
		if err != nil {
			b.Fatal(err)
		}
		sh, err := hot.SizeRails()
		if err != nil {
			b.Fatal(err)
		}
		if sh.RailWidthM <= su.RailWidthM {
			b.Fatalf("hot spots must widen the rails")
		}
	}
}

// Ablation 7: analytic rail model vs numerical solvers.
func BenchmarkAblationGridSolvers(b *testing.B) {
	node := itrs.Base().MustNode(35)
	spec := powergrid.DefaultSpec(node, node.BumpPitchMinM)
	for i := 0; i < b.N; i++ {
		if _, err := powergrid.ValidateAnalytic(spec, 128); err != nil {
			b.Fatal(err)
		}
		if _, err := powergrid.PessimisticRatio(spec, 31); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation 8: optimal vs ad-hoc repeater sizing.
func BenchmarkAblationRepeaterSizing(b *testing.B) {
	drv, err := repeater.UnitDriverIn(device.BaseLab(), 50, units.CelsiusToKelvin(85))
	if err != nil {
		b.Fatal(err)
	}
	line, err := wire.ForNodeIn(itrs.Base(), 50, wire.Global)
	if err != nil {
		b.Fatal(err)
	}
	length, err := wire.CrossChipLengthIn(itrs.Base(), 50)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		best := repeater.Optimize(drv, line, length)
		adhoc := repeater.WithRepeaters(drv, line, length, best.Count/2, best.Size/2)
		if adhoc.Delay <= best.Delay {
			b.Fatalf("ad-hoc sizing should lose")
		}
	}
}

// --- Core engines under load (library performance benchmarks) -------------------

func BenchmarkSTAFull(b *testing.B) {
	c := freshCircuit(b, 1.15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sta.Analyze(c)
	}
}

func BenchmarkSTAIncrementalEdit(b *testing.B) {
	c := freshCircuit(b, 1.15)
	inc := sta.NewIncremental(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := &c.Gates[i%len(c.Gates)]
		old := g.Size
		g.Size = old * 0.99
		if !inc.TryUpdate(g.ID) {
			g.Size = old
		}
	}
}

func BenchmarkCombinedFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := freshCircuit(b, 1.15)
		if _, err := core.RunFlow(c, core.DefaultFlowOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDualVthAssign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := freshCircuit(b, 1.0)
		if _, err := dualvth.Assign(c, dualvth.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResizeDownsize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := freshCircuit(b, 1.15)
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

func BenchmarkClaimStackVth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunStackVthIn(device.BaseLab(), 70); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClaimStandby(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunStandbyIn(device.BaseLab()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClaimSwingStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSwingStudyIn(device.BaseLab(), 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClaimBusPlan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunBusPlanIn(device.BaseLab(), 50); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel harness & solver kernels ------------------------------------------

// meshLaplacian builds the n×n 5-point mesh system Mesh.Solve assembles —
// reflective boundaries, the center node pinned (removed) as the bump,
// uniform current injection — the hot inner kernel of Figure 5 / C8,
// isolated for solver comparisons.
func meshLaplacian(n int) (*mathx.SparseMatrix, []float64) {
	center := (n/2)*n + n/2
	idx := make([]int, n*n)
	cnt := 0
	for i := range idx {
		if i == center {
			idx[i] = -1
			continue
		}
		idx[i] = cnt
		cnt++
	}
	m := mathx.NewSparseMatrix(cnt)
	b := make([]float64, cnt)
	at := func(r, c int) int { return r*n + c }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			u := at(r, c)
			if idx[u] < 0 {
				continue
			}
			row := idx[u]
			b[row] = 1e-4
			deg := 0.0
			for _, nb := range [][2]int{{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}} {
				if nb[0] < 0 || nb[0] >= n || nb[1] < 0 || nb[1] >= n {
					continue // reflective boundary
				}
				v := at(nb[0], nb[1])
				deg++
				if idx[v] >= 0 {
					m.Add(row, idx[v], -1)
				}
			}
			m.Add(row, row, deg)
		}
	}
	return m, b
}

// BenchmarkMeshSolve compares the IR-drop kernel at two grid sizes:
// allocating CG (the seed behaviour and the differential-test reference)
// against the production path — frozen CSR with a multigrid V-cycle
// preconditioner (near-constant iterations in n, zero allocations warm).
// Iterations are reported per row; CG grows O(n) while MG-workspace stays
// flat, which is what makes n = 255 affordable.
func BenchmarkMeshSolve(b *testing.B) {
	for _, n := range []int{63, 255} {
		m, rhs := meshLaplacian(n)
		frozen, _ := meshLaplacian(n)
		frozen.Freeze()
		mg, err := mathx.NewMeshMG(n, (n/2)*n+n/2)
		if err != nil {
			b.Fatal(err)
		}
		run := func(name string, solve func(b *testing.B) (int, error)) {
			b.Run(fmt.Sprintf("n=%d/%s", n, name), func(b *testing.B) {
				b.ReportAllocs()
				iters := 0
				for i := 0; i < b.N; i++ {
					it, err := solve(b)
					if err != nil {
						b.Fatal(err)
					}
					iters = it
				}
				b.ReportMetric(float64(iters), "iters")
			})
		}
		run("CG", func(b *testing.B) (int, error) {
			_, it, err := m.SolveCG(rhs, 1e-10, 20*m.N)
			return it, err
		})
		var wsMG mathx.Workspace
		run("MG-workspace", func(b *testing.B) (int, error) {
			_, it, err := frozen.SolveMGW(&wsMG, mg, rhs, 1e-10, 20*frozen.N)
			return it, err
		})
	}
}

// BenchmarkSweepBatch pins the batched sweep-solve claims at the two
// production grid sizes, for a 9-variant same-grid scenario sweep:
//
//   - varied-solo / varied-batch: 9 distinct same-pattern systems
//     (conductance and draw perturbed per variant) as 9 independent
//     Mesh.Solve calls vs one SolveMeshBatch lockstep call. The batch
//     shares the CSR pattern traversal and fuses its Krylov reductions,
//     with bit-identical drops; the V-cycle (the dominant cost) is
//     per-variant either way, so these two track closely — the batch must
//     simply never lose.
//   - sweep-independent / sweep-primed: the shape a real sweep has when
//     the swept parameter leaves the 35 nm grid untouched (the common
//     case — e.g. the default vdd sweeps at other nodes): every variant
//     assembles the SAME system. Pre-batch, the per-variant computes ran
//     9 full identical solves (sweep-independent); the priming path
//     (repro.PrimeVariants → powergrid.PrimeSolves) now solves once and
//     parks a counted drop for all 9 consumers (sweep-primed). This row
//     is the sweep fast path's headline: ~9× fewer real solves.
func BenchmarkSweepBatch(b *testing.B) {
	const variants = 9
	for _, n := range []int{127, 255} {
		build := func(varied bool) []*powergrid.Mesh {
			meshes := make([]*powergrid.Mesh, variants)
			for i := range meshes {
				f := 1.0
				if varied {
					f = 0.9 + 0.2*float64(i)/float64(variants-1)
				}
				meshes[i] = &powergrid.Mesh{
					N:            n,
					PitchM:       80e-6,
					EdgeOhms:     0.04 * f,
					NodeCurrentA: 1.2e-4 / f,
				}
			}
			return meshes
		}
		b.Run(fmt.Sprintf("n=%d/varied-solo", n), func(b *testing.B) {
			meshes := build(true)
			for i := 0; i < b.N; i++ {
				for _, m := range meshes {
					if _, err := m.Solve(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/varied-batch", n), func(b *testing.B) {
			meshes := build(true)
			for i := 0; i < b.N; i++ {
				if _, err := powergrid.SolveMeshBatch(meshes); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/sweep-independent", n), func(b *testing.B) {
			meshes := build(false)
			for i := 0; i < b.N; i++ {
				for _, m := range meshes {
					if _, err := m.Solve(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/sweep-primed", n), func(b *testing.B) {
			meshes := build(false)
			for i := 0; i < b.N; i++ {
				powergrid.PrimeSolves(meshes)
				for _, m := range meshes {
					if _, err := m.Solve(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkMeshSolveGrid runs the full powergrid path (assembly + pooled
// workspace + PCG) exactly as Figure 5 does.
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
// figures, claims) through the runner pool at several worker counts. The
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
			jobs := repro.Jobs(repro.Artifacts(), repro.Options{NoCache: true})
			pool := runner.Pool{Workers: workers}
			for i := 0; i < b.N; i++ {
				results, err := pool.RunToContext(context.Background(), io.Discard, jobs)
				if err != nil {
					b.Fatal(err)
				}
				if err := runner.Errs(results); err != nil {
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
	c := freshCircuit(b, 1.15)
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
