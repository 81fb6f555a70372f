package trace

import (
	"context"
	"fmt"
	"math"

	"nanometer/internal/device"
	"nanometer/internal/dvfs"
	"nanometer/internal/itrs"
	"nanometer/internal/result"
	"nanometer/internal/thermal"
)

// MaxChunks bounds the incremental snapshots one run emits: long traces
// aggregate many intervals per chunk, so a progress stream is always a few
// hundred lines no matter how many intervals the simulation covers.
const MaxChunks = 512

// Progress is one incremental snapshot of a running simulation — the unit
// of the job service's progress polling and NDJSON streaming, and the
// sample grid of the result figure.
type Progress struct {
	// Done counts intervals completed; Total the trace length.
	Done  int `json:"done"`
	Total int `json:"total"`
	// TimeS is simulated time at the snapshot (Done·dt).
	TimeS float64 `json:"time_s"`
	// TempC and PowerW are the junction temperature and derated
	// dissipation at the snapshot interval.
	TempC  float64 `json:"temp_c"`
	PowerW float64 `json:"power_w"`
	// PeakTempC, MeanPowerW, and ThrottledFraction are running aggregates
	// over [0, Done).
	PeakTempC         float64 `json:"peak_temp_c"`
	MeanPowerW        float64 `json:"mean_power_w"`
	ThrottledFraction float64 `json:"throttled_fraction"`
	// BacklogIntervals is the DVFS governor's undelivered work, in
	// full-speed intervals.
	BacklogIntervals float64 `json:"backlog_intervals"`
}

// Intervals returns the trace length without materializing the series.
func (t *Trace) Intervals() int {
	if t.Generator != nil {
		return t.Generator.Intervals
	}
	return len(t.PowerW)
}

// node resolves the roadmap node the trace simulates against.
func (t *Trace) node() (itrs.Node, error) {
	nm := t.NodeNM
	if nm == 0 {
		nm = DefaultNodeNM
	}
	return itrs.Base().ByNode(nm)
}

// controller builds the DTM policy from the sim spec.
func (t *Trace) controller() thermal.Controller {
	var s SimSpec
	if t.Sim != nil {
		s = *t.Sim
	}
	switch s.Controller {
	case "none":
		return thermal.NoDTM{}
	case "dvs":
		d := thermal.DVS{FreqScale: 0.5, VddScale: 0.8}
		if s.FreqScale != nil {
			d.FreqScale = *s.FreqScale
		}
		if s.VddScale != nil {
			d.VddScale = *s.VddScale
		}
		return d
	default:
		c := thermal.ClockThrottle{DutyCycle: 0.5}
		if s.DutyCycle != nil {
			c.DutyCycle = *s.DutyCycle
		}
		return c
	}
}

// source returns the series iterator and the theoretical-maximum reference
// power (the utilization denominator and the virus level).
func (t *Trace) source(node itrs.Node) (next func() float64, maxW float64) {
	maxW = node.MaxPowerW
	if t.Generator != nil && t.Generator.TheoreticalMaxW != nil {
		maxW = *t.Generator.TheoreticalMaxW
	}
	switch {
	case len(t.PowerW) > 0:
		i := 0
		next = func() float64 { v := t.PowerW[i]; i++; return v }
	case t.Generator.Kind == "virus":
		v := maxW
		next = func() float64 { return v }
	default:
		p := thermal.DefaultWorkload(maxW)
		g := t.Generator
		if g.TypicalFraction != nil {
			p.TypicalFraction = *g.TypicalFraction
		}
		if g.BurstFraction != nil {
			p.BurstFraction = *g.BurstFraction
		}
		if g.BurstLevel != nil {
			p.BurstLevel = *g.BurstLevel
		}
		if g.NoiseFraction != nil {
			p.NoiseFraction = *g.NoiseFraction
		}
		if g.Seed != nil {
			p.Seed = *g.Seed
		}
		next = p.Stream().Next
	}
	return next, maxW
}

// sim is one run's fixed set-up: the models the interval loop drives and
// the constants it reads. The models are held by value so that they stay
// on the run's stack.
type sim struct {
	node   itrs.Node
	table  *dvfs.Table
	gov    dvfs.Governor
	plant  thermal.Plant
	sensor thermal.Sensor
	ctrl   thermal.Controller
	next   func() float64
	maxW   float64
	total  int
	dt     float64
	// stride is the number of intervals per progress chunk.
	stride int
}

// setup resolves the trace into a fresh simulation.
func (t *Trace) setup() (sim, error) {
	node, err := t.node()
	if err != nil {
		return sim{}, fmt.Errorf("trace %s: %w", t.Name, err)
	}
	table, err := dvfs.NewTableIn(device.BaseLab(), node.DrawnNM, 8, 0.5, 0)
	if err != nil {
		return sim{}, fmt.Errorf("trace %s: building DVFS table: %w", t.Name, err)
	}
	cth, trip, hyst := 40.0, node.JunctionTempC-1, 2.0
	if t.Sim != nil {
		if t.Sim.CthJPerC != nil {
			cth = *t.Sim.CthJPerC
		}
		if t.Sim.SensorTripC != nil {
			trip = *t.Sim.SensorTripC
		}
		if t.Sim.HysteresisC != nil {
			hyst = *t.Sim.HysteresisC
		}
	}
	s := sim{
		node:   node,
		table:  table,
		gov:    *dvfs.NewGovernor(table),
		plant:  *thermal.NewPlant(thermal.Package{ThetaJA: node.ThetaJA, AmbientC: node.AmbientTempC}, cth),
		sensor: thermal.Sensor{TripC: trip, HysteresisC: hyst},
		ctrl:   t.controller(),
		total:  t.Intervals(),
		dt:     t.DtSeconds,
	}
	s.next, s.maxW = t.source(node)
	s.stride = max(1, (s.total+MaxChunks-1)/MaxChunks)
	return s, nil
}

// tally is what the interval loop accumulates: the running aggregates and
// the decimated figure series.
type tally struct {
	peakTempC, peakPowerW, sumPowerW float64
	workDone                         float64
	throttled                        int
	govBacklog                       float64
	dvfsE, gateE                     float64
	figT, figTemp, figPower          []float64
}

// emit records the progress snapshot after interval i, whose derated
// power was p, and hands it to onChunk.
func (s *sim) emit(a *tally, i int, p float64, onChunk func(Progress)) {
	pr := Progress{
		Done:             i + 1,
		Total:            s.total,
		TimeS:            float64(i+1) * s.dt,
		TempC:            s.plant.TempC,
		PowerW:           p,
		PeakTempC:        a.peakTempC,
		MeanPowerW:       a.sumPowerW / float64(i+1),
		BacklogIntervals: a.govBacklog,
	}
	pr.ThrottledFraction = float64(a.throttled) / float64(i+1)
	a.figT = append(a.figT, pr.TimeS)
	a.figTemp = append(a.figTemp, pr.TempC)
	a.figPower = append(a.figPower, pr.PowerW)
	if onChunk != nil {
		onChunk(pr)
	}
}

// Run simulates the trace: the thermal plant + sensor + DTM controller
// consume the power series interval by interval, while a dvfs.Governor
// side-accounts delivered work, backlog, and the DVFS-vs-clock-gating
// energy ratio over the same demand. onChunk (optional) receives at most
// MaxChunks incremental snapshots, the last one always covering the final
// interval.
//
// ctx is checked every control interval, so cancellation (a job DELETE, a
// dropped stream) stops the simulation within one interval of simulated
// work. A canceled run returns ctx's error and no result. Assertions do
// not error: they become pass/fail checks on the result's claim findings
// (FailedChecks surfaces them).
func (t *Trace) Run(ctx context.Context, onChunk func(Progress)) (*result.Result, error) {
	s, err := t.setup()
	if err != nil {
		return nil, err
	}
	a, err := s.run(ctx, onChunk)
	if err != nil {
		return nil, err
	}
	return t.toResult(&s, &a), nil
}

// run is the interval loop. Everything fixed for the run is evaluated
// once, outside it: the controller's two answers (every controller that
// Trace.controller builds is pure in the sensor bit), the plant's decay
// factor (memoized by Plant.Step) and ctx's done channel. Each interval
// still polls that channel and repeats the arithmetic in the same order,
// so the result is bit-identical to evaluating everything per interval.
func (s *sim) run(ctx context.Context, onChunk func(Progress)) (tally, error) {
	var (
		a                    tally
		plant, sensor, table = &s.plant, &s.sensor, s.table
		next, maxW, dt       = s.next, s.maxW, s.dt
		govCur               = s.gov.Step(1) // start at the top point
		fsOver, vsOver       = s.ctrl.Act(true)
		fsCool, vsCool       = s.ctrl.Act(false)
		cancel               = ctx.Done()
		countdown            = s.stride
	)
	for i := 0; i < s.total; i++ {
		select {
		case <-cancel:
			return tally{}, ctx.Err()
		default:
		}
		d := next()
		fs, vs := fsCool, vsCool
		if sensor.Read(plant.TempC) {
			fs, vs = fsOver, vsOver
		}
		p := d * fs * vs * vs
		plant.Step(p, dt)
		if plant.TempC > a.peakTempC {
			a.peakTempC = plant.TempC
		}
		if p > a.peakPowerW {
			a.peakPowerW = p
		}
		a.sumPowerW += p
		a.workDone += fs
		if fs < 1 || vs < 1 {
			a.throttled++
		}
		// Governor side-accounting: demand in full-speed work units.
		u := max(0, min(1, d/maxW))
		pending := u + a.govBacklog
		done := min(pending, govCur.RelSpeed)
		a.govBacklog = pending - done
		active := 0.0
		if govCur.RelSpeed > 0 {
			active = done / govCur.RelSpeed
		}
		govCur = s.gov.Step(active)
		// Energy comparison at the demanded utilization (§2.1: voltage
		// scaling vs full-voltage clock gating for the same work).
		a.dvfsE += u * table.PointForUtilization(u).EnergyPerWork
		a.gateE += u
		if countdown--; countdown == 0 || i == s.total-1 {
			countdown = s.stride
			s.emit(&a, i, p, onChunk)
		}
	}
	return a, nil
}

// toResult turns a finished run's tally into the trace's typed result.
func (t *Trace) toResult(s *sim, a *tally) *result.Result {
	energyRatio := 0.0
	if a.gateE > 0 {
		energyRatio = a.dvfsE / a.gateE
	}
	total := s.total
	res := &result.Result{ID: t.ArtifactID(), Title: t.title()}
	claim := &result.Claim{}
	claim.Num("intervals", float64(total), "").
		Num("dt_seconds", s.dt, "s").
		Num("node_nm", float64(s.node.DrawnNM), "nm").
		Str("controller", s.ctrl.Name()).
		Num("theoretical_max_w", s.maxW, "W")
	type metric struct {
		key  string
		v    float64
		unit string
	}
	for _, m := range []metric{
		{"peak_temp_c", a.peakTempC, "C"},
		{"peak_power_w", a.peakPowerW, "W"},
		{"mean_power_w", a.sumPowerW / math.Max(1, float64(total)), "W"},
		{"throttled_fraction", float64(a.throttled) / math.Max(1, float64(total)), ""},
		{"throughput", a.workDone / math.Max(1, float64(total)), ""},
		{"backlog_intervals", a.govBacklog, "intervals"},
		{"dvfs_energy_ratio", energyRatio, ""},
	} {
		if as := t.assertFor(m.key); as != nil {
			claim.Checked(m.key, m.v, m.unit, as.Value, as.RelTol)
		} else {
			claim.Num(m.key, m.v, m.unit)
		}
	}
	res.AddClaim(claim)
	res.AddFigure(&result.Figure{
		Name:   "trace_" + t.Name,
		Title:  "junction temperature and derated power over the trace",
		XLabel: "time (s)",
		Series: []result.Series{
			{Name: "junction_temp_c", X: a.figT, Y: a.figTemp},
			{Name: "power_w", X: a.figT, Y: a.figPower},
		},
	})
	return res
}

func (t *Trace) title() string {
	if t.Title != "" {
		return t.Title
	}
	return "trace simulation: " + t.Name
}

func (t *Trace) assertFor(key string) *Assertion {
	for i := range t.Assert {
		if t.Assert[i].Check == key {
			return &t.Assert[i]
		}
	}
	return nil
}

// FailedChecks lists the failed assertion checks of a trace result — the
// exit-code surface of the CLI and the CI smoke.
func FailedChecks(res *result.Result) []result.Finding {
	var out []result.Finding
	for _, it := range res.Items {
		if it.Claim != nil {
			out = append(out, it.Claim.FailedChecks()...)
		}
	}
	return out
}
