package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"nanometer/internal/cvs"
	"nanometer/internal/device"
	"nanometer/internal/dualvth"
	"nanometer/internal/experiments"
	"nanometer/internal/libopt"
	"nanometer/internal/netlist"
	"nanometer/internal/powergrid"
	"nanometer/internal/render"
	"nanometer/internal/repro"
	"nanometer/internal/resize"
	"nanometer/internal/result"
	"nanometer/internal/runner"
	"nanometer/internal/scenario"
	"nanometer/internal/sta"
	"nanometer/internal/store"
	"nanometer/internal/trace"
)

// cost calls fn reps times and returns the median wall time in
// milliseconds and the median number of heap allocations per call.
func cost(reps int, fn func() error) (ms, allocs float64, err error) {
	var ts, as []float64
	var m0, m1 runtime.MemStats
	for i := 0; i < reps; i++ {
		runtime.ReadMemStats(&m0)
		start := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		ts = append(ts, msOf(d))
		as = append(as, float64(m1.Mallocs-m0.Mallocs))
	}
	return median(ts), median(as), nil
}

// probeCircuits builds the netlist the circuit artifacts (c3–c6) share —
// experiments.DefaultCircuitSetup's profile, resized to gates — clocked at
// its guard, plus the oversized copy c3 starts from.
func probeCircuits(gates int) (tech *netlist.Tech, p netlist.GenParams, base, over *netlist.Circuit, err error) {
	s := experiments.DefaultCircuitSetup()
	tech, err = netlist.NewTechIn(device.BaseLab(), s.NodeNM, s.LowVddRatio)
	if err != nil {
		return nil, p, nil, nil, err
	}
	p = netlist.DefaultGenParams()
	p.Gates, p.Levels, p.ShortPathFraction, p.Seed = gates, 30, 0.5, s.Seed
	if base, err = netlist.Generate(tech, p); err != nil {
		return nil, p, nil, nil, err
	}
	if _, err = sta.SetPeriodFromCritical(base, s.PeriodGuard); err != nil {
		return nil, p, nil, nil, err
	}
	over = base.Clone()
	for i := range over.Gates {
		over.Gates[i].Size = 8
	}
	_, err = sta.SetPeriodFromCritical(over, s.PeriodGuard)
	return tech, p, base, over, err
}

// runProbes times each layer from outside on the fixed inputs the
// artifacts use, serially, after the timed phase. Each probe is a span.
func runProbes(ctx context.Context, e *env) ([]metric, error) {
	var out []metric
	add := func(name string, v float64, unit string, n int) {
		out = append(out, metric{name: name, value: v, unit: unit, n: n})
	}
	probe := func(name string, reps int, fn func() error) (ms, allocs float64, err error) {
		sp := e.tr.start("probe/"+name, -1, -1)
		defer e.tr.end(sp)
		ms, allocs, err = cost(reps, fn)
		if err != nil {
			err = fmt.Errorf("%s: %w", name, err)
		}
		return ms, allocs, err
	}

	// The runner and compute layers are read off report spans; a workload
	// that renders no reports gets one here.
	hasReport := false
	for _, s := range e.tr.snapshot() {
		hasReport = hasReport || s.Name == "op.report"
	}
	if !hasReport {
		if _, err := renderReport(ctx, e.tr, e.sc.arts, -1); err != nil {
			return nil, fmt.Errorf("report: %w", err)
		}
	}

	// netlist and sta, on the c3 netlist.
	tech, params, base, over, err := probeCircuits(e.sc.gates)
	if err != nil {
		return nil, err
	}
	ms, _, err := probe("netlist.generate", 3, func() error {
		_, err := netlist.Generate(tech, params)
		return err
	})
	if err != nil {
		return nil, err
	}
	add("netlist.generate_ms", ms, "ms", 3)
	if ms, _, err = probe("netlist.clone", 5, func() error { base.Clone(); return nil }); err != nil {
		return nil, err
	}
	add("netlist.clone_ms", ms, "ms", 5)
	ms, allocs, err := probe("sta.analyze", 5, func() error { sta.Analyze(over); return nil })
	if err != nil {
		return nil, err
	}
	add("sta.analyze_ms", ms, "ms", 5)
	add("sta.analyze_allocs", allocs, "count", 5)
	// Three downsizing passes over the oversized netlist: each gate in
	// turn shrinks by the resize step, and the incremental engine keeps
	// or rolls back the move.
	inc := over.Clone()
	var calls, accepted int
	ms, allocs, err = probe("sta.try_update", 1, func() error {
		engine := sta.NewIncremental(inc)
		seeds := make([]int, 0, 8)
		for pass := 0; pass < 3; pass++ {
			for i := range inc.Gates {
				g := &inc.Gates[i]
				old := g.Size
				g.Size = old * resize.DefaultOptions().Step
				seeds = append(seeds[:0], i)
				for _, ref := range g.Inputs {
					if _, isPI := netlist.IsPI(ref); !isPI {
						seeds = append(seeds, ref)
					}
				}
				calls++
				if engine.TryUpdate(seeds...) {
					accepted++
				} else {
					g.Size = old
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	add("sta.try_update_us", ms*1e3/float64(calls), "us", calls)
	add("sta.try_update_allocs", allocs/float64(calls), "count", calls)
	add("sta.accept_ratio", ratio(float64(accepted), float64(calls)), "fraction", calls)

	// The optimizers, each on a fresh clone of the netlist its artifact uses.
	tight := base.Clone()
	if _, err := sta.SetPeriodFromCritical(tight, 1.0); err != nil {
		return nil, err
	}
	for _, o := range []struct {
		name string
		reps int
		fn   func() error
	}{
		{"libopt.size", 1, func() error {
			_, err := libopt.SizeWithLibrary(over.Clone(), libopt.Geometric("rich modern (min 1, ratio 1.3)", 1, 64, 1.3), 0)
			return err
		}},
		{"resize.downsize", 1, func() error {
			_, err := resize.Downsize(base.Clone(), resize.DefaultOptions())
			return err
		}},
		{"cvs.assign", 3, func() error {
			_, err := cvs.Assign(base.Clone(), cvs.DefaultOptions())
			return err
		}},
		{"dualvth.assign", 3, func() error {
			_, err := dualvth.Assign(tight.Clone(), dualvth.Options{})
			return err
		}},
	} {
		ms, allocs, err := probe(o.name, o.reps, o.fn)
		if err != nil {
			return nil, err
		}
		add(o.name+"_ms", ms, "ms", o.reps)
		add(o.name+"_allocs", allocs, "count", o.reps)
	}

	// powergrid, on the c8 35 nm grid.
	mesh41, err := experiments.BumpMesh(device.BaseLab(), experiments.DefaultMeshN)
	if err != nil {
		return nil, err
	}
	if ms, _, err = probe("powergrid.solve.n41", 20, func() error { _, err := mesh41.Solve(); return err }); err != nil {
		return nil, err
	}
	add("powergrid.solve_ms.n41", ms, "ms", 20)
	mesh255, err := experiments.BumpMesh(device.BaseLab(), e.sc.meshN)
	if err != nil {
		return nil, err
	}
	before := powergrid.ReadSolveStats()
	if ms, _, err = probe("powergrid.solve.n255", 3, func() error { _, err := mesh255.Solve(); return err }); err != nil {
		return nil, err
	}
	add("powergrid.solve_ms.n255", ms, "ms", 3)
	add("powergrid.iters.n255", float64(powergrid.ReadSolveStats().Iterations-before.Iterations)/3, "count", 3)
	shapes := sweepShapes(e.sc)
	// Nine distinct meshes: the Vdd sweep (shape A) the batch kernel runs.
	distinct, err := sweepMeshes(shapes[0].call("probe", 20).body, e.sc.meshN)
	if err != nil {
		return nil, err
	}
	if ms, _, err = probe("powergrid.batch9", 2, func() error {
		_, err := powergrid.SolveMeshBatch(distinct)
		return err
	}); err != nil {
		return nil, err
	}
	add("powergrid.batch9_ms.n255", ms, "ms", 2)
	// Nine identical meshes (shape B): one primed solve feeds all nine.
	same := make([]*powergrid.Mesh, len(distinct))
	for i := range same {
		same[i] = mesh255
	}
	if ms, _, err = probe("powergrid.prime9", 2, func() error {
		powergrid.PrimeSolves(same)
		for _, m := range same {
			if _, err := m.Solve(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	add("powergrid.prime9_ms.n255", ms, "ms", 2)

	// scenario: parse, expand and resolve one sweep of each shape.
	if ms, _, err = probe("scenario.resolve", 3, func() error {
		for _, sh := range shapes {
			s, err := scenario.Parse(sh.call("probe", 20).body)
			if err != nil {
				return err
			}
			vs, err := s.Variants()
			if err != nil {
				return err
			}
			for _, v := range vs {
				if _, err := v.Resolve(); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	add("scenario.resolve_ms", ms, "ms", 3)

	// render and store, over the results of every artifact.
	results, err := repro.ComputeAllCtx(ctx, runner.Pool{}, e.sc.arts, repro.Options{})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, enc := range []struct {
		name string
		fn   func() error
	}{
		{"render.text", func() error {
			for _, res := range results {
				if err := (render.Text{}).Encode(&buf, res); err != nil {
					return err
				}
			}
			return nil
		}},
		{"render.json", func() error {
			return render.JSON{Indent: "  "}.EncodeReport(&buf, &result.Report{Artifacts: results})
		}},
		{"render.csv", func() error {
			for _, res := range results {
				if err := (render.CSV{}).Encode(&buf, res); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		ms, _, err := probe(enc.name, 5, func() error { buf.Reset(); return enc.fn() })
		if err != nil {
			return nil, err
		}
		add(enc.name+"_ms", ms, "ms", 5)
	}
	dir, err := os.MkdirTemp("", "nanobench-probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	if ms, _, err = probe("store.put", 3, func() error {
		for _, res := range results {
			st.Put(res.ID, "probe", res)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	add("store.put_ms", ms, "ms", 3)
	if ms, _, err = probe("store.get", 3, func() error {
		for _, res := range results {
			if _, ok := st.Get(res.ID, "probe"); !ok {
				return fmt.Errorf("%s is not in the store", res.ID)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	add("store.get_ms", ms, "ms", 3)

	// trace: one virus trace of the jobs' length.
	tr, err := trace.Parse(traceDoc("probe", "virus", e.sc.traceIntervals, 0))
	if err != nil {
		return nil, err
	}
	if ms, _, err = probe("trace.run", 1, func() error {
		_, err := tr.Run(ctx, nil)
		return err
	}); err != nil {
		return nil, err
	}
	add("trace.mintervals_per_s", float64(e.sc.traceIntervals)/1e6/(ms/1e3), "M/s", 1)
	return out, nil
}

// sweepMeshes returns the c8 mesh of every variant of a sweep document.
func sweepMeshes(doc []byte, meshN int) ([]*powergrid.Mesh, error) {
	s, err := scenario.Parse(doc)
	if err != nil {
		return nil, err
	}
	vs, err := s.Variants()
	if err != nil {
		return nil, err
	}
	meshes := make([]*powergrid.Mesh, 0, len(vs))
	for _, v := range vs {
		lab, err := v.Resolve()
		if err != nil {
			return nil, err
		}
		m, err := experiments.BumpMesh(lab, meshN)
		if err != nil {
			return nil, err
		}
		meshes = append(meshes, m)
	}
	return meshes, nil
}
