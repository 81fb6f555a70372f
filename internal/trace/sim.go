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

// source returns the power series as a block filler, each call continuing
// where the last one stopped, and the theoretical-maximum reference power
// (the utilization denominator and the virus level).
func (t *Trace) source(node itrs.Node) (fill func([]float64), maxW float64) {
	maxW = node.MaxPowerW
	if t.Generator != nil && t.Generator.TheoreticalMaxW != nil {
		maxW = *t.Generator.TheoreticalMaxW
	}
	switch {
	case len(t.PowerW) > 0:
		rest := t.PowerW
		fill = func(buf []float64) { rest = rest[copy(buf, rest):] }
	case t.Generator.Kind == "virus":
		v := maxW
		fill = func(buf []float64) {
			for i := range buf {
				buf[i] = v
			}
		}
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
		fill = p.Stream().Fill
	}
	return fill, maxW
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
	fill   func([]float64)
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
	s.fill, s.maxW = t.source(node)
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
// The power series is produced on a second goroutine, one block of
// blockLen intervals ahead of the loop that consumes it, so a run may
// briefly use two cores. Run stops that goroutine and waits for it to
// exit before it returns, on every path.
//
// ctx is checked after every progress chunk and before every block of the
// series, so cancellation (a job DELETE, a dropped stream) stops the
// simulation within min(stride, blockLen) intervals of simulated work,
// stride being the intervals per chunk; a cancel raised inside onChunk
// stops it before the next interval, and no chunk follows that one. A
// canceled run returns ctx's error and no result. A failed
// assertion is not an error: it becomes a failed check on the result's
// claim findings (Result.FailedChecks surfaces them).
func (t *Trace) Run(ctx context.Context, onChunk func(Progress)) (*result.Result, error) {
	s, err := t.setup()
	if err != nil {
		return nil, err
	}
	a, err := s.run(ctx, onChunk)
	if err != nil {
		return nil, err
	}
	return t.toResult(&s, &a)
}

// blockLen is the number of intervals the producer fills per block: large
// enough that the channel hand-off costs nothing per interval, small
// enough that the three buffers stay in cache.
const blockLen = 4096

// produce starts the goroutine that fills the power series. Three buffers
// circulate: the producer takes one from free, fills it and sends it on
// full, and the consumer returns it to free once the loop has read it. Both
// channels hold all three buffers, so no send blocks, and the producer runs
// at most two blocks ahead. stop ends the goroutine and returns once it has
// exited; the producer watches for it while it waits for a free buffer.
func (s *sim) produce() (full <-chan []float64, free chan<- []float64, stop func()) {
	n := min(blockLen, s.total)
	bufs := make([]float64, 3*n)
	fullc, freec := make(chan []float64, 3), make(chan []float64, 3)
	for k := 0; k < 3; k++ {
		freec <- bufs[k*n : (k+1)*n : (k+1)*n]
	}
	quit, done := make(chan struct{}), make(chan struct{})
	fill, total := s.fill, s.total
	go func() {
		defer close(done)
		for left := total; left > 0; {
			select {
			case <-quit:
				return
			case buf := <-freec:
				buf = buf[:min(left, len(buf))]
				fill(buf)
				fullc <- buf
				left -= len(buf)
			}
		}
	}()
	return fullc, freec, func() { close(quit); <-done }
}

// run is the interval loop. Everything fixed for the run is evaluated
// once, outside it: the controller's two answers (every controller that
// Trace.controller builds is pure in the sensor bit), the plant's decay
// factor, the governor's thresholds and ctx's done channel. The plant
// temperature and the governor's operating point live in locals, and the
// energy term is memoized on the last utilization (the virus's is
// constant). Each interval repeats the arithmetic in the same order, so the
// result is bit-identical to evaluating everything per interval.
//
// ctx is not polled per interval but after each chunk is emitted and
// before each block is taken, first on its own there, so that a block
// already filled cannot win the select against an earlier cancel.
func (s *sim) run(ctx context.Context, onChunk func(Progress)) (tally, error) {
	full, free, stop := s.produce()
	defer stop()
	var (
		a                    tally
		plant, sensor, table = &s.plant, &s.sensor, s.table
		maxW, dt             = s.maxW, s.dt
		fsOver, vsOver       = s.ctrl.Act(true)
		fsCool, vsCool       = s.ctrl.Act(false)
		cancel               = ctx.Done()
		countdown            = s.stride
		// The plant: Plant.Step with its memoized decay factor.
		temp, decay = plant.TempC, 0.0
		amb, theta  = plant.AmbientC, plant.ThetaJA
		tau         = plant.ThetaJA * plant.CthJPerC
		// The governor: Governor.Step from the top point, where a fresh
		// governor starts and its first Step(1) leaves it.
		points   = s.gov.Table.Points
		up, down = s.gov.UpThreshold, s.gov.DownThreshold
		gi       = 0
		relSpeed = points[gi].RelSpeed
		// The energy term for lastU; NaN so that the first u misses.
		lastU, lastE = math.NaN(), 0.0
	)
	if tau > 0 {
		decay = math.Exp(-dt / tau)
	}
	for i := 0; i < s.total; {
		if err := ctx.Err(); err != nil {
			return tally{}, err
		}
		var blk []float64
		select {
		case <-cancel:
			return tally{}, ctx.Err()
		case blk = <-full:
		}
		for _, d := range blk {
			fs, vs := fsCool, vsCool
			if sensor.Read(temp) {
				fs, vs = fsOver, vsOver
			}
			p := d * fs * vs * vs
			tInf := amb + theta*p
			if tau <= 0 {
				temp = tInf
			} else {
				temp = tInf + (temp-tInf)*decay
			}
			if temp > a.peakTempC {
				a.peakTempC = temp
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
			done := min(pending, relSpeed)
			a.govBacklog = pending - done
			active := 0.0
			if relSpeed > 0 {
				active = done / relSpeed
			}
			if active > up && gi > 0 {
				gi--
			} else if active < down && gi < len(points)-1 {
				gi++
			}
			relSpeed = points[gi].RelSpeed
			// Energy comparison at the demanded utilization (§2.1: voltage
			// scaling vs full-voltage clock gating for the same work).
			if u != lastU {
				lastU, lastE = u, u*table.PointForUtilization(u).EnergyPerWork
			}
			a.dvfsE += lastE
			a.gateE += u
			if countdown--; countdown == 0 || i == s.total-1 {
				countdown = s.stride
				plant.TempC = temp
				s.emit(&a, i, p, onChunk)
				if err := ctx.Err(); err != nil {
					return tally{}, err
				}
			}
			i++
		}
		free <- blk
	}
	return a, nil
}

// toResult turns a finished run's tally into the trace's typed result,
// with the trace's assertions applied as checks.
func (t *Trace) toResult(s *sim, a *tally) (*result.Result, error) {
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
		Num("theoretical_max_w", s.maxW, "W").
		Num("peak_temp_c", a.peakTempC, "C").
		Num("peak_power_w", a.peakPowerW, "W").
		Num("mean_power_w", a.sumPowerW/math.Max(1, float64(total)), "W").
		Num("throttled_fraction", float64(a.throttled)/math.Max(1, float64(total)), "").
		Num("throughput", a.workDone/math.Max(1, float64(total)), "").
		Num("backlog_intervals", a.govBacklog, "intervals").
		Num("dvfs_energy_ratio", energyRatio, "")
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
	if err := res.ApplyChecks(t.Assert); err != nil {
		return nil, err
	}
	return res, nil
}

func (t *Trace) title() string {
	if t.Title != "" {
		return t.Title
	}
	return "trace simulation: " + t.Name
}
