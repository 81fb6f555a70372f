// Package power analyzes netlist power: signal-probability and activity
// propagation through the logic, per-gate dynamic and leakage power, and
// totals broken down by supply and threshold class — the accounting the
// paper's CVS / dual-Vth / re-sizing comparisons need.
package power

import (
	"nanometer/internal/gate"
	"nanometer/internal/netlist"
)

// Report is a power breakdown of one circuit.
type Report struct {
	// DynamicW and LeakageW are the totals.
	DynamicW, LeakageW float64
	// LevelConverterW is the dynamic power consumed by low-to-high supply
	// converters, included in DynamicW.
	LevelConverterW float64
	// ByVddDynamicW[i] is the dynamic power drawn from supply class i.
	ByVddDynamicW []float64
	// ByVthLeakageW[i] is the leakage of threshold class i.
	ByVthLeakageW []float64
	// GateDynamicW / GateLeakageW are per-gate values.
	GateDynamicW, GateLeakageW []float64
	// ClockHz is the evaluation frequency.
	ClockHz float64
}

// TotalW returns dynamic + leakage power.
func (r *Report) TotalW() float64 { return r.DynamicW + r.LeakageW }

// PropagateActivity fills each gate's Prob and Activity fields from the
// primary-input activity, assuming input independence: signal probabilities
// compose through the gate function and the toggle rate follows the
// random-telegraph model 2·p·(1−p) scaled to the PI toggle density.
func PropagateActivity(c *netlist.Circuit) {
	piProb := 0.5
	// The PI toggle density relative to the maximum 2·p·(1−p) = 0.5.
	density := c.PIActivity / (2 * piProb * (1 - piProb))
	for i := range c.Gates {
		g := &c.Gates[i]
		// Probability that the output is 1.
		var p float64
		switch g.Kind {
		case gate.Inv:
			p = 1 - inputProb(c, g, 0)
		case gate.Nand:
			prod := 1.0
			for k := range g.Inputs {
				prod *= inputProb(c, g, k)
			}
			p = 1 - prod
		case gate.Nor:
			prod := 1.0
			for k := range g.Inputs {
				prod *= 1 - inputProb(c, g, k)
			}
			p = prod
		}
		g.Prob = p
		g.Activity = 2 * p * (1 - p) * density
	}
}

func inputProb(c *netlist.Circuit, g *netlist.Gate, k int) float64 {
	ref := g.Inputs[k]
	if _, ok := netlist.IsPI(ref); ok {
		return 0.5
	}
	return c.Gates[ref].Prob
}

// Analyze computes the power report at clock frequency fHz. Activities must
// have been propagated (Analyze calls PropagateActivity when every gate
// activity is zero).
func Analyze(c *netlist.Circuit, fHz float64) *Report {
	needsActivity := true
	for i := range c.Gates {
		if c.Gates[i].Activity != 0 {
			needsActivity = false
			break
		}
	}
	if needsActivity {
		PropagateActivity(c)
	}
	// The four breakdowns share one allocation.
	nv, nt, n := len(c.Tech.VddLevels), len(c.Tech.VthLevels), len(c.Gates)
	buf := make([]float64, nv+nt+2*n)
	at := nv + nt
	r := &Report{
		ByVddDynamicW: buf[:nv:nv],
		ByVthLeakageW: buf[nv:at:at],
		GateDynamicW:  buf[at : at+n : at+n],
		GateLeakageW:  buf[at+n:],
		ClockHz:       fHz,
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		load := c.LoadOn(g)
		e := c.Tech.CellEnergy(g.Kind, len(g.Inputs), g.VddClass, g.VthClass, g.Size, load)
		pd := g.Activity * fHz * e
		if g.NeedsLC {
			lcP := g.Activity * fHz * c.Tech.LevelConverterEnergyJ
			pd += lcP
			r.LevelConverterW += lcP
		}
		pl := c.Tech.CellLeakage(g.Kind, len(g.Inputs), g.VddClass, g.VthClass, g.Size)
		r.GateDynamicW[i] = pd
		r.GateLeakageW[i] = pl
		r.DynamicW += pd
		r.LeakageW += pl
		r.ByVddDynamicW[g.VddClass] += pd
		r.ByVthLeakageW[g.VthClass] += pl
	}
	return r
}

// AreaEstimate returns a relative area metric: total device width plus the
// level-converter and dual-rail overheads of multi-Vdd designs. The paper's
// reference point is ≈15 % area overhead for a CVS media processor.
type AreaEstimate struct {
	// CellArea is the summed drive strength (unit cells).
	CellArea float64
	// LCArea is the area of inserted level converters.
	LCArea float64
	// RailOverhead is the placement/power-routing overhead of carrying a
	// second supply, charged per low-Vdd cell.
	RailOverhead float64
}

// Total returns the total relative area.
func (a AreaEstimate) Total() float64 { return a.CellArea + a.LCArea + a.RailOverhead }

// EstimateArea computes the area model. lcUnits is the area of one level
// converter in unit cells (≈3); railFraction the per-low-Vdd-cell routing
// overhead (≈0.08).
func EstimateArea(c *netlist.Circuit, lcUnits, railFraction float64) AreaEstimate {
	var a AreaEstimate
	for i := range c.Gates {
		g := &c.Gates[i]
		a.CellArea += g.Size
		if g.NeedsLC {
			a.LCArea += lcUnits
		}
		if g.VddClass > 0 {
			a.RailOverhead += railFraction * g.Size
		}
	}
	return a
}
