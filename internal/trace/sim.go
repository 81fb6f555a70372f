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
	node, err := t.node()
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", t.Name, err)
	}
	table, err := dvfs.NewTableIn(device.BaseLab(), node.DrawnNM, 8, 0.5, 0)
	if err != nil {
		return nil, fmt.Errorf("trace %s: building DVFS table: %w", t.Name, err)
	}
	gov := dvfs.NewGovernor(table)

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
	plant := thermal.NewPlant(thermal.Package{ThetaJA: node.ThetaJA, AmbientC: node.AmbientTempC}, cth)
	sensor := &thermal.Sensor{TripC: trip, HysteresisC: hyst}
	ctrl := t.controller()
	next, maxW := t.source(node)

	total := t.Intervals()
	dt := t.DtSeconds
	stride := (total + MaxChunks - 1) / MaxChunks
	if stride < 1 {
		stride = 1
	}

	var (
		peakTempC, peakPowerW, sumPowerW float64
		workDone                         float64
		throttled                        int
		govCur                           = gov.Step(1) // start at the top point
		govWork, govBacklog              float64
		dvfsE, gateE                     float64
		figT, figTemp, figPower          []float64
	)
	emit := func(i int, p float64) {
		pr := Progress{
			Done:             i + 1,
			Total:            total,
			TimeS:            float64(i+1) * dt,
			TempC:            plant.TempC,
			PowerW:           p,
			PeakTempC:        peakTempC,
			MeanPowerW:       sumPowerW / float64(i+1),
			BacklogIntervals: govBacklog,
		}
		pr.ThrottledFraction = float64(throttled) / float64(i+1)
		figT = append(figT, pr.TimeS)
		figTemp = append(figTemp, pr.TempC)
		figPower = append(figPower, pr.PowerW)
		if onChunk != nil {
			onChunk(pr)
		}
	}
	for i := 0; i < total; i++ {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
		d := next()
		over := sensor.Read(plant.TempC)
		fs, vs := ctrl.Act(over)
		p := d * fs * vs * vs
		plant.Step(p, dt)
		if plant.TempC > peakTempC {
			peakTempC = plant.TempC
		}
		if p > peakPowerW {
			peakPowerW = p
		}
		sumPowerW += p
		workDone += fs
		if fs < 1 || vs < 1 {
			throttled++
		}
		// Governor side-accounting: demand in full-speed work units.
		u := d / maxW
		u = math.Max(0, math.Min(1, u))
		pending := u + govBacklog
		done := math.Min(pending, govCur.RelSpeed)
		govBacklog = pending - done
		govWork += done
		active := 0.0
		if govCur.RelSpeed > 0 {
			active = done / govCur.RelSpeed
		}
		govCur = gov.Step(active)
		// Energy comparison at the demanded utilization (§2.1: voltage
		// scaling vs full-voltage clock gating for the same work).
		pt := table.PointForUtilization(u)
		dvfsE += u * pt.EnergyPerWork
		gateE += u
		if (i+1)%stride == 0 || i == total-1 {
			emit(i, p)
		}
	}

	energyRatio := 0.0
	if gateE > 0 {
		energyRatio = dvfsE / gateE
	}
	res := &result.Result{ID: t.ArtifactID(), Title: t.title()}
	claim := &result.Claim{}
	claim.Num("intervals", float64(total), "").
		Num("dt_seconds", dt, "s").
		Num("node_nm", float64(node.DrawnNM), "nm").
		Str("controller", ctrl.Name()).
		Num("theoretical_max_w", maxW, "W")
	type metric struct {
		key  string
		v    float64
		unit string
	}
	for _, m := range []metric{
		{"peak_temp_c", peakTempC, "C"},
		{"peak_power_w", peakPowerW, "W"},
		{"mean_power_w", sumPowerW / math.Max(1, float64(total)), "W"},
		{"throttled_fraction", float64(throttled) / math.Max(1, float64(total)), ""},
		{"throughput", workDone / math.Max(1, float64(total)), ""},
		{"backlog_intervals", govBacklog, "intervals"},
		{"dvfs_energy_ratio", energyRatio, ""},
	} {
		if a := t.assertFor(m.key); a != nil {
			claim.Checked(m.key, m.v, m.unit, a.Value, a.RelTol)
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
			{Name: "junction_temp_c", X: figT, Y: figTemp},
			{Name: "power_w", X: figT, Y: figPower},
		},
	})
	return res, nil
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
