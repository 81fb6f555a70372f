// Package dvfs implements dynamic voltage/frequency scaling — the
// Transmeta-style response the paper's §2.1 contrasts with simple clock
// throttling. Operating points are derived from the device models (the
// maximum frequency at each supply comes from the reference inverter's FO4
// delay), a governor walks the table against utilization and temperature,
// and the energy accounting shows why voltage scaling beats clock gating:
// work costs C·V² per operation, so slowing down *and* lowering the rail
// returns quadratic energy per unit of work.
package dvfs

import (
	"fmt"
	"math"

	"nanometer/internal/device"
	"nanometer/internal/gate"
	"nanometer/internal/units"
)

// OperatingPoint is one (Vdd, f) pair of the DVFS table.
type OperatingPoint struct {
	// Vdd is the supply; FreqHz the maximum clock the logic meets there.
	Vdd    float64
	FreqHz float64
	// RelSpeed and RelPower are normalized to the top point (dynamic
	// power at full utilization).
	RelSpeed, RelPower float64
	// EnergyPerWork is the relative energy per operation (∝ Vdd²).
	EnergyPerWork float64
}

// Table is a DVFS operating-point table for a node.
type Table struct {
	NodeNM int
	// Points run in descending Vdd and strictly descending RelSpeed;
	// Points[0] is the top point.
	Points []OperatingPoint
	// LogicDepth is the FO4 depths per cycle used to map gate delay to
	// clock frequency.
	LogicDepth float64
}

// NewTableIn builds an n-point table for a node, spanning supplies from the
// nominal Vdd down to loFrac·Vdd. Frequencies come from the reference
// inverter's FO4 delay with logicDepth stages per cycle (zero selects the
// depth that reproduces the node's local clock at nominal supply).
func NewTableIn(lab *device.Lab, nodeNM, n int, loFrac, logicDepth float64) (*Table, error) {
	if n < 2 {
		return nil, fmt.Errorf("dvfs: need at least 2 points, got %d", n)
	}
	if loFrac <= 0 || loFrac >= 1 {
		return nil, fmt.Errorf("dvfs: low fraction %g outside (0,1)", loFrac)
	}
	node, err := lab.Node(nodeNM)
	if err != nil {
		return nil, err
	}
	inv, err := gate.ReferenceInverterIn(lab, nodeNM)
	if err != nil {
		return nil, err
	}
	T := units.CelsiusToKelvin(85)
	if logicDepth == 0 {
		logicDepth = 1 / (node.LocalClockHz * inv.FO4Delay(node.Vdd, T))
		if logicDepth < 2 {
			logicDepth = 2
		}
	}
	t := &Table{NodeNM: nodeNM, LogicDepth: logicDepth}
	for i := 0; i < n; i++ {
		frac := 1 - (1-loFrac)*float64(i)/float64(n-1)
		vdd := frac * node.Vdd
		fo4 := inv.FO4Delay(vdd, T)
		if math.IsInf(fo4, 1) || fo4 <= 0 {
			return nil, fmt.Errorf("dvfs: no valid frequency at %g V", vdd)
		}
		t.Points = append(t.Points, OperatingPoint{
			Vdd:    vdd,
			FreqHz: 1 / (logicDepth * fo4),
		})
	}
	top := t.Points[0]
	for i := range t.Points {
		p := &t.Points[i]
		p.RelSpeed = p.FreqHz / top.FreqHz
		// Dynamic power ∝ f·V²; normalized to the top point.
		p.RelPower = (p.FreqHz * p.Vdd * p.Vdd) / (top.FreqHz * top.Vdd * top.Vdd)
		p.EnergyPerWork = (p.Vdd * p.Vdd) / (top.Vdd * top.Vdd)
	}
	// PointForUtilization's binary search relies on this ordering.
	for i := 1; i < n; i++ {
		if !(t.Points[i].RelSpeed < t.Points[i-1].RelSpeed) {
			return nil, fmt.Errorf("dvfs: relative speed %g at %g V does not fall below %g at %g V",
				t.Points[i].RelSpeed, t.Points[i].Vdd, t.Points[i-1].RelSpeed, t.Points[i-1].Vdd)
		}
	}
	return t, nil
}

// PointForUtilization returns the lowest-power point whose speed covers the
// demanded utilization (fraction of full-speed work per interval): the last
// point with RelSpeed ≥ u − 1e-12, or the top point when none covers it.
// RelSpeed strictly descends, so the covering points are a prefix of the
// table and a binary search finds its end.
func (t *Table) PointForUtilization(u float64) OperatingPoint {
	need := u - 1e-12
	lo, hi := 0, len(t.Points)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.Points[m].RelSpeed >= need {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == 0 {
		return t.Points[0]
	}
	return t.Points[lo-1]
}

// EnergyVsThrottling compares the two §2.1 responses delivering the same
// work: a DVFS governor running each interval at the matching point, vs
// full-voltage clock gating (run at full speed for u of the time). The
// return is DVFS energy over gating energy (< 1: the quadratic advantage).
func (t *Table) EnergyVsThrottling(utilizations []float64) float64 {
	var dvfsE, gateE float64
	for _, u := range utilizations {
		u = math.Max(0, math.Min(1, u))
		p := t.PointForUtilization(u)
		// Work u delivered at energy-per-work Vdd² (relative): the DVFS
		// point may exceed the demand; it still pays per work done.
		dvfsE += u * p.EnergyPerWork
		gateE += u * 1.0
	}
	if gateE == 0 {
		return 0
	}
	return dvfsE / gateE
}

// Governor walks the table against a utilization trace with hysteresis,
// returning the sequence of chosen points and the mean relative power.
type Governor struct {
	Table *Table
	// UpThreshold and DownThreshold are utilization bounds for stepping
	// the operating point (defaults 0.9 / 0.6).
	UpThreshold, DownThreshold float64

	idx int
}

// NewGovernor returns a governor starting at the top point.
func NewGovernor(t *Table) *Governor {
	return &Governor{Table: t, UpThreshold: 0.9, DownThreshold: 0.6}
}

// Step consumes one interval's utilization (relative to the *current*
// point's speed) and returns the point for the next interval.
func (g *Governor) Step(utilization float64) OperatingPoint {
	if utilization > g.UpThreshold && g.idx > 0 {
		g.idx--
	} else if utilization < g.DownThreshold && g.idx < len(g.Table.Points)-1 {
		g.idx++
	}
	return g.Table.Points[g.idx]
}

// Run processes a demand trace (work per interval, relative to full speed)
// and returns delivered work, mean relative power, and the backlog left.
func (g *Governor) Run(demand []float64) (work, meanPower, backlog float64) {
	cur := g.Table.Points[g.idx]
	for _, d := range demand {
		pending := d + backlog
		done := math.Min(pending, cur.RelSpeed)
		backlog = pending - done
		work += done
		// Power: active fraction at the point's power, idle otherwise.
		active := 0.0
		if cur.RelSpeed > 0 {
			active = done / cur.RelSpeed
		}
		meanPower += active * cur.RelPower
		util := active
		cur = g.Step(util)
	}
	if n := len(demand); n > 0 {
		meanPower /= float64(n)
	}
	return work, meanPower, backlog
}
