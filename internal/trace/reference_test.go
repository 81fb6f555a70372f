package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"nanometer/internal/dvfs"
	"nanometer/internal/result"
)

// referenceRun is the interval loop as it was written before its loop
// invariants were hoisted: math.Exp for the plant's decay, ctrl.Act, a
// linear scan of the DVFS table, math.Min/Max and a (i+1)%stride chunk
// test, all once per interval. Set-up, chunk emission and the result are
// shared with Run, so a difference can only come from the loop.
func referenceRun(ctx context.Context, t *Trace, onChunk func(Progress)) (*result.Result, error) {
	s, err := t.setup()
	if err != nil {
		return nil, err
	}
	var a tally
	plant := &s.plant
	govCur := s.gov.Step(1)
	for i := 0; i < s.total; i++ {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
		d := s.next()
		over := s.sensor.Read(plant.TempC)
		fs, vs := s.ctrl.Act(over)
		p := d * fs * vs * vs
		tInf := plant.AmbientC + plant.ThetaJA*p
		if tau := plant.ThetaJA * plant.CthJPerC; tau <= 0 {
			plant.TempC = tInf
		} else {
			plant.TempC = tInf + (plant.TempC-tInf)*math.Exp(-s.dt/tau)
		}
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
		u := d / s.maxW
		u = math.Max(0, math.Min(1, u))
		pending := u + a.govBacklog
		done := math.Min(pending, govCur.RelSpeed)
		a.govBacklog = pending - done
		active := 0.0
		if govCur.RelSpeed > 0 {
			active = done / govCur.RelSpeed
		}
		govCur = s.gov.Step(active)
		pt := linearPointForUtilization(s.table, u)
		a.dvfsE += u * pt.EnergyPerWork
		a.gateE += u
		if (i+1)%s.stride == 0 || i == s.total-1 {
			s.emit(&a, i, p, onChunk)
		}
	}
	return t.toResult(&s, &a)
}

// next draws the series one interval at a time through the run's filler,
// the way referenceRun consumes it.
func (s *sim) next() float64 {
	var v [1]float64
	s.fill(v[:])
	return v[0]
}

// linearPointForUtilization is the table lookup as a linear scan: the last
// point whose speed covers u, else the top point.
func linearPointForUtilization(t *dvfs.Table, u float64) dvfs.OperatingPoint {
	best := t.Points[0]
	for _, p := range t.Points {
		if p.RelSpeed >= u-1e-12 {
			best = p
		}
	}
	return best
}

// spikySeries is an explicit power series around the 50 nm node's 174 W
// theoretical maximum: hot stretches that trip the sensor, idle zeros, and
// single-interval spikes far above the maximum.
func spikySeries(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch {
		case i%97 == 13:
			out[i] = 400
		case i%500 >= 450:
			out[i] = 0
		case (i/2000)%2 == 0:
			out[i] = 190
		default:
			out[i] = 60 + float64(i%37)
		}
	}
	return out
}

// TestRunMatchesReference pins Run to referenceRun bit for bit: every
// claim finding, both figure series and every progress chunk, over four
// power sources × three controllers × two control intervals, traces whose
// lengths sit on and around the producer's block edges, and one document
// carrying assertions.
func TestRunMatchesReference(t *testing.T) {
	series, err := json.Marshal(spikySeries(20000))
	if err != nil {
		t.Fatal(err)
	}
	type part struct{ name, json string }
	sources := []part{
		{"virus", `"generator":{"kind":"virus","intervals":50000}`},
		{"workload-a", `"generator":{"kind":"workload","intervals":50000,"typical_fraction":0.75,"seed":11}`},
		{"workload-b", `"generator":{"kind":"workload","intervals":50000,"typical_fraction":0.9,"burst_fraction":0.4,"seed":20011017}`},
		{"series", `"power_w":` + string(series)},
	}
	controllers := []part{
		{"throttle", `{"controller":"throttle"}`},
		{"dvs", `{"controller":"dvs","freq_scale":0.6,"vdd_scale":0.85}`},
		{"none", `{"controller":"none"}`},
	}
	var docs []string
	for _, src := range sources {
		for _, ctl := range controllers {
			for _, dt := range []string{"0.01", "0.5"} {
				docs = append(docs, fmt.Sprintf(`{"name":"%s-%s-%s","dt_seconds":%s,"node_nm":50,%s,"sim":%s}`,
					src.name, ctl.name, dt, dt, src.json, ctl.json))
			}
		}
	}
	// Lengths around the producer's block, so that chunk strides fall
	// across block edges, and an explicit series shorter than one block.
	for _, n := range []int{1, blockLen - 1, blockLen, blockLen + 1, 2*blockLen + 1} {
		docs = append(docs, fmt.Sprintf(`{"name":"edge-%d","dt_seconds":0.5,"node_nm":50,"generator":{"kind":"workload","intervals":%d,"seed":5}}`, n, n))
	}
	short, err := json.Marshal(spikySeries(blockLen / 3))
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, `{"name":"short-series","dt_seconds":0.5,"node_nm":50,"power_w":`+string(short)+`}`)
	docs = append(docs, `{"name":"asserted","dt_seconds":0.01,"node_nm":50,
		"generator":{"kind":"workload","intervals":30000,"seed":3},
		"assert":[{"check":"peak_temp_c","value":80,"rel_tol":0.05},{"check":"dvfs_energy_ratio","value":0.4,"rel_tol":0.001}]}`)

	throttledRuns := 0
	for _, doc := range docs {
		tr := MustParse(doc)
		var got, want []Progress
		res, err := tr.Run(context.Background(), func(p Progress) { got = append(got, p) })
		if err != nil {
			t.Fatalf("%s: run: %v", tr.Name, err)
		}
		ref, err := referenceRun(context.Background(), tr, func(p Progress) { want = append(want, p) })
		if err != nil {
			t.Fatalf("%s: reference run: %v", tr.Name, err)
		}
		compareResults(t, tr.Name, res, ref)
		if len(got) != len(want) {
			t.Fatalf("%s: %d chunks, reference %d", tr.Name, len(got), len(want))
		}
		for i := range got {
			if !sameProgress(got[i], want[i]) {
				t.Fatalf("%s: chunk %d\n got %+v\nwant %+v", tr.Name, i, got[i], want[i])
			}
		}
		if f, ok := res.Items[0].Claim.Find("throttled_fraction"); ok && f.Value > 0 {
			throttledRuns++
		}
	}
	// The sensor must actually trip somewhere, or the controller's
	// throttled answer is never compared.
	if throttledRuns < 8 {
		t.Fatalf("only %d of %d runs throttled; the cases do not exercise DTM", throttledRuns, len(docs))
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameProgress(a, b Progress) bool {
	return a.Done == b.Done && a.Total == b.Total &&
		sameBits(a.TimeS, b.TimeS) && sameBits(a.TempC, b.TempC) && sameBits(a.PowerW, b.PowerW) &&
		sameBits(a.PeakTempC, b.PeakTempC) && sameBits(a.MeanPowerW, b.MeanPowerW) &&
		sameBits(a.ThrottledFraction, b.ThrottledFraction) && sameBits(a.BacklogIntervals, b.BacklogIntervals)
}

// compareResults fails unless two trace results carry bit-identical claim
// findings (checks included) and figure series.
func compareResults(t *testing.T, name string, got, want *result.Result) {
	t.Helper()
	if len(got.Items) != len(want.Items) {
		t.Fatalf("%s: %d items, reference %d", name, len(got.Items), len(want.Items))
	}
	for i := range got.Items {
		g, w := got.Items[i], want.Items[i]
		switch {
		case g.Claim != nil && w.Claim != nil:
			if len(g.Claim.Findings) != len(w.Claim.Findings) {
				t.Fatalf("%s: %d findings, reference %d", name, len(g.Claim.Findings), len(w.Claim.Findings))
			}
			for j, gf := range g.Claim.Findings {
				wf := w.Claim.Findings[j]
				if gf.Key != wf.Key || gf.Unit != wf.Unit || gf.Text != wf.Text || !sameBits(gf.Value, wf.Value) ||
					(gf.Check == nil) != (wf.Check == nil) || (gf.Check != nil && *gf.Check != *wf.Check) {
					t.Errorf("%s: finding %s = %v (%v), reference %v (%v)", name, gf.Key, gf.Value, gf.Check, wf.Value, wf.Check)
				}
			}
		case g.Figure != nil && w.Figure != nil:
			if len(g.Figure.Series) != len(w.Figure.Series) {
				t.Fatalf("%s: %d series, reference %d", name, len(g.Figure.Series), len(w.Figure.Series))
			}
			for j, gs := range g.Figure.Series {
				ws := w.Figure.Series[j]
				if gs.Name != ws.Name || len(gs.X) != len(ws.X) || len(gs.Y) != len(ws.Y) {
					t.Fatalf("%s: series %s shape differs from the reference", name, gs.Name)
				}
				for k := range gs.X {
					if !sameBits(gs.X[k], ws.X[k]) || !sameBits(gs.Y[k], ws.Y[k]) {
						t.Fatalf("%s: series %s point %d = (%v, %v), reference (%v, %v)", name, gs.Name, k, gs.X[k], gs.Y[k], ws.X[k], ws.Y[k])
					}
				}
			}
		default:
			t.Fatalf("%s: item %d kinds differ from the reference", name, i)
		}
	}
}
