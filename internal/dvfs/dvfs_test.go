package dvfs

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/units"
)

func table(t *testing.T) *Table {
	t.Helper()
	tb, err := NewTableIn(device.BaseLab(), 100, 6, 0.55, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestNewTableErrors(t *testing.T) {
	if _, err := NewTableIn(device.BaseLab(), 100, 1, 0.5, 0); err == nil {
		t.Fatalf("single point must error")
	}
	if _, err := NewTableIn(device.BaseLab(), 100, 4, 1.2, 0); err == nil {
		t.Fatalf("bad fraction must error")
	}
	if _, err := NewTableIn(device.BaseLab(), 65, 4, 0.5, 0); err == nil {
		t.Fatalf("unknown node must error")
	}
	// Supplies 1e-13 apart give the same clock: speed no longer strictly
	// descends, which PointForUtilization's search cannot accept.
	if _, err := NewTableIn(device.BaseLab(), 100, 1000, 1-1e-13, 0); err == nil || !strings.Contains(err.Error(), "does not fall below") {
		t.Fatalf("flat speed must error, got %v", err)
	}
}

func TestTableShape(t *testing.T) {
	tb := table(t)
	if len(tb.Points) != 6 {
		t.Fatalf("want 6 points")
	}
	top := tb.Points[0]
	if top.RelSpeed != 1 || top.RelPower != 1 || top.EnergyPerWork != 1 {
		t.Fatalf("top point must normalize to 1: %+v", top)
	}
	for i := 1; i < len(tb.Points); i++ {
		a, b := tb.Points[i-1], tb.Points[i]
		if b.Vdd >= a.Vdd || b.FreqHz >= a.FreqHz {
			t.Fatalf("points must descend in Vdd and frequency")
		}
		if b.RelPower >= a.RelPower {
			t.Fatalf("power must fall with the operating point")
		}
		if b.EnergyPerWork >= a.EnergyPerWork {
			t.Fatalf("energy per work must fall with Vdd")
		}
	}
	// Energy per work is exactly quadratic in Vdd.
	last := tb.Points[len(tb.Points)-1]
	want := (last.Vdd / top.Vdd) * (last.Vdd / top.Vdd)
	if !units.ApproxEqual(last.EnergyPerWork, want, 1e-9, 0) {
		t.Fatalf("energy/work = %g, want Vdd² ratio %g", last.EnergyPerWork, want)
	}
	// Frequency falls faster than linearly in Vdd near threshold — the
	// speed at the bottom point is below the Vdd ratio.
	if last.RelSpeed >= last.Vdd/top.Vdd {
		t.Fatalf("frequency should degrade super-linearly toward low Vdd")
	}
}

func TestTableMatchesNodeClock(t *testing.T) {
	// With the derived logic depth, the top point reproduces the node's
	// local clock target.
	tb := table(t)
	if tb.Points[0].FreqHz < 1e9 {
		t.Fatalf("top frequency %g implausible", tb.Points[0].FreqHz)
	}
	if tb.LogicDepth < 2 {
		t.Fatalf("logic depth %g too shallow", tb.LogicDepth)
	}
}

func TestPointForUtilization(t *testing.T) {
	tb := table(t)
	if p := tb.PointForUtilization(1.0); p.Vdd != tb.Points[0].Vdd {
		t.Fatalf("full demand needs the top point")
	}
	low := tb.PointForUtilization(0.05)
	if low.Vdd != tb.Points[len(tb.Points)-1].Vdd {
		t.Fatalf("tiny demand should pick the bottom point")
	}
	// The chosen point always covers the demand.
	for _, u := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		p := tb.PointForUtilization(u)
		if p.RelSpeed < u-1e-12 {
			t.Fatalf("point at %g V cannot cover utilization %g", p.Vdd, u)
		}
	}
}

// TestTablesDescendInSpeed: every base node's table (the shape the trace
// simulator builds) is strictly descending in RelSpeed, the invariant the
// binary search in PointForUtilization relies on and NewTableIn checks.
func TestTablesDescendInSpeed(t *testing.T) {
	lab := device.BaseLab()
	for _, nm := range lab.NodesNM() {
		for _, n := range []int{2, 8, 32} {
			tb, err := NewTableIn(lab, nm, n, 0.5, 0)
			if err != nil {
				t.Fatalf("%d nm, %d points: %v", nm, n, err)
			}
			for i := 1; i < len(tb.Points); i++ {
				if !(tb.Points[i].RelSpeed < tb.Points[i-1].RelSpeed) {
					t.Fatalf("%d nm, %d points: RelSpeed %g at point %d does not fall below %g",
						nm, n, tb.Points[i].RelSpeed, i, tb.Points[i-1].RelSpeed)
				}
			}
		}
	}
}

// TestPointForUtilizationMatchesScan pins the binary search to the linear
// scan it replaced (the last point with RelSpeed ≥ u − 1e-12, else the top
// point) on a dense grid of u that hits every RelSpeed exactly, ±1e-12
// around it, and u outside [0, 1].
func TestPointForUtilizationMatchesScan(t *testing.T) {
	scan := func(tb *Table, u float64) OperatingPoint {
		best := tb.Points[0]
		for _, p := range tb.Points {
			if p.RelSpeed >= u-1e-12 {
				best = p
			}
		}
		return best
	}
	lab := device.BaseLab()
	for _, nm := range lab.NodesNM() {
		tb, err := NewTableIn(lab, nm, 8, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		us := []float64{-1, -1e-12, 0, 1, 1 + 1e-13, 1 + 1e-12, 1 + 2e-12, 1.5, math.Inf(1), math.Inf(-1), math.NaN()}
		for i := -100; i <= 1100; i++ {
			us = append(us, float64(i)/1000)
		}
		for _, p := range tb.Points {
			for _, d := range []float64{-2e-12, -1e-12, -5e-13, 0, 5e-13, 1e-12, 2e-12} {
				us = append(us, p.RelSpeed+d)
			}
			us = append(us, math.Nextafter(p.RelSpeed+1e-12, 0), math.Nextafter(p.RelSpeed+1e-12, 2))
		}
		for _, u := range us {
			if got, want := tb.PointForUtilization(u), scan(tb, u); got != want {
				t.Fatalf("%d nm, u = %v: point at %g V, scan picks %g V", nm, u, got.Vdd, want.Vdd)
			}
		}
	}
}

func TestEnergyVsThrottling(t *testing.T) {
	tb := table(t)
	rng := rand.New(rand.NewSource(3))
	utils := make([]float64, 500)
	for i := range utils {
		utils[i] = 0.2 + 0.5*rng.Float64()
	}
	ratio := tb.EnergyVsThrottling(utils)
	// The quadratic advantage: DVFS should use well under the gating
	// energy at partial load.
	if ratio >= 0.9 {
		t.Fatalf("DVFS/gating energy = %g, expected a clear win", ratio)
	}
	if ratio <= 0.2 {
		t.Fatalf("DVFS/gating energy = %g suspiciously low for this table", ratio)
	}
	// At saturation there is nothing to save.
	full := tb.EnergyVsThrottling([]float64{1, 1, 1})
	if !units.ApproxEqual(full, 1, 1e-9, 0) {
		t.Fatalf("full load must cost the same: %g", full)
	}
}

func TestGovernorTracksLoad(t *testing.T) {
	tb := table(t)
	g := NewGovernor(tb)
	// Sustained low demand walks the governor down the table.
	for i := 0; i < 20; i++ {
		g.Step(0.1)
	}
	low := tb.Points[g.idx]
	if low.Vdd >= tb.Points[1].Vdd {
		t.Fatalf("governor failed to descend under low load (at %g V)", low.Vdd)
	}
	// A burst walks it back up.
	for i := 0; i < 20; i++ {
		g.Step(0.99)
	}
	if g.idx != 0 {
		t.Fatalf("governor failed to return to the top point under load")
	}
}

func TestGovernorRunDeliversWork(t *testing.T) {
	tb := table(t)
	rng := rand.New(rand.NewSource(7))
	demand := make([]float64, 2000)
	var total float64
	for i := range demand {
		demand[i] = 0.55 * rng.Float64()
		total += demand[i]
	}
	g := NewGovernor(tb)
	work, meanPower, backlog := g.Run(demand)
	if backlog > 0.02*total {
		t.Fatalf("governor left %.1f%% of the work undone", backlog/total*100)
	}
	if math.Abs(work+backlog-total) > 1e-9 {
		t.Fatalf("work accounting broken: %g + %g vs %g", work, backlog, total)
	}
	// Mean power must undercut running the same trace pinned at the top
	// point (active-fraction × full power).
	gTop := NewGovernor(tb)
	gTop.DownThreshold = -1 // never descend
	_, topPower, _ := gTop.Run(demand)
	if meanPower >= topPower {
		t.Fatalf("governor power %g must beat top-pinned %g", meanPower, topPower)
	}
}

// TestGovernorRunConservesWork is the work-conservation property: over any
// demand trace, delivered work plus leftover backlog equals total demand
// to 1e-12 (relative), work never exceeds demand, and backlog never goes
// negative. Shapes cover idle, steady, bursty, overload, and adversarial
// threshold-riding traces across several seeds and table geometries.
func TestGovernorRunConservesWork(t *testing.T) {
	shapes := []struct {
		name string
		gen  func(rng *rand.Rand, n int) []float64
	}{
		{"idle", func(_ *rand.Rand, n int) []float64 { return make([]float64, n) }},
		{"uniform", func(rng *rand.Rand, n int) []float64 {
			d := make([]float64, n)
			for i := range d {
				d[i] = rng.Float64()
			}
			return d
		}},
		{"bursty", func(rng *rand.Rand, n int) []float64 {
			d := make([]float64, n)
			for i := range d {
				if rng.Float64() < 0.15 {
					d[i] = 0.9 + 0.1*rng.Float64()
				} else {
					d[i] = 0.1 * rng.Float64()
				}
			}
			return d
		}},
		{"overload", func(rng *rand.Rand, n int) []float64 {
			d := make([]float64, n)
			for i := range d {
				d[i] = 1 + 2*rng.Float64() // more than full speed can ever deliver
			}
			return d
		}},
		{"threshold-riding", func(rng *rand.Rand, n int) []float64 {
			d := make([]float64, n)
			for i := range d {
				// Hover around the governor's up/down thresholds to force
				// constant point changes.
				d[i] = 0.6 + 0.3*rng.Float64()
			}
			return d
		}},
	}
	for _, points := range []int{2, 6, 12} {
		tb, err := NewTableIn(device.BaseLab(), 100, points, 0.55, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shapes {
			for seed := int64(1); seed <= 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				demand := sh.gen(rng, 4096)
				var total float64
				for _, d := range demand {
					total += d
				}
				g := NewGovernor(tb)
				work, meanPower, backlog := g.Run(demand)
				tol := 1e-12 * math.Max(1, total)
				if math.Abs(work+backlog-total) > tol {
					t.Fatalf("%s/points=%d/seed=%d: work %g + backlog %g != demand %g (err %g > %g)",
						sh.name, points, seed, work, backlog, total, math.Abs(work+backlog-total), tol)
				}
				if backlog < 0 {
					t.Fatalf("%s/points=%d/seed=%d: negative backlog %g", sh.name, points, seed, backlog)
				}
				if work > total+tol {
					t.Fatalf("%s/points=%d/seed=%d: delivered %g exceeds demand %g", sh.name, points, seed, work, total)
				}
				if meanPower < 0 || meanPower > 1+1e-12 {
					t.Fatalf("%s/points=%d/seed=%d: mean relative power %g outside [0, 1]", sh.name, points, seed, meanPower)
				}
			}
		}
	}
}
