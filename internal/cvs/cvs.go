// Package cvs implements clustered voltage scaling (Usami-Horowitz CVS),
// the multi-Vdd technique of the paper's §2.4: non-critical gates move to a
// reduced supply Vdd,l ≈ 0.6–0.7·Vdd,h, with level conversion confined to
// register boundaries by the structure rule that a low-supply gate may only
// drive other low-supply gates (or a converter at a primary output). The
// package reports the assigned fraction, the dynamic-power saving net of
// converter overhead, and the area overhead — the quantities the paper
// cites (≈75 % of gates at Vdd,l, 45–50 % power saving including 8–10 %
// conversion overhead, ≈15 % area).
package cvs

import (
	"fmt"

	"nanometer/internal/netlist"
	"nanometer/internal/power"
	"nanometer/internal/sta"
)

// Options tunes the assignment.
type Options struct {
	// Clustering enables the CVS structure rule (LCs only at POs). When
	// false, any gate may move to Vdd,l with a converter wherever its
	// output feeds a high-supply gate — the unclustered ablation with many
	// more converters.
	Clustering bool
}

// DefaultOptions returns the paper-typical configuration.
func DefaultOptions() Options {
	return Options{Clustering: true}
}

// The area model: a level converter's area in unit cells, and the routing
// overhead of the second rail as a fraction of each low-supply cell.
const (
	lcAreaUnits      = 2
	railAreaFraction = 0.06
)

// Result summarizes an assignment run.
type Result struct {
	// AssignedFraction is the share of gates moved to Vdd,l.
	AssignedFraction float64
	// LevelConverters is the number of converters inserted.
	LevelConverters int
	// Before and After are the power reports at 1/period.
	Before, After *power.Report
	// DynamicSaving is 1 − after/before dynamic power.
	DynamicSaving float64
	// LCOverheadFraction is converter power over the dynamic power saved
	// gross (the paper's 8–10 %).
	LCOverheadFraction float64
	// AreaOverhead is the relative area increase of the multi-Vdd design.
	AreaOverhead float64
	// TimingMet confirms the final design meets the period.
	TimingMet bool
}

// Assign moves every gate that can tolerate Vdd,l under the structure and
// timing rules. The circuit must have a two-supply tech and meet its period
// at all-high; it is modified in place.
func Assign(c *netlist.Circuit, opts Options) (*Result, error) {
	if !c.Tech.HasLowVdd() {
		return nil, fmt.Errorf("cvs: tech has a single supply")
	}
	if c.ClockPeriodS <= 0 {
		return nil, fmt.Errorf("cvs: circuit has no clock period")
	}
	inc := sta.NewIncremental(c)
	if !inc.Met() {
		return nil, fmt.Errorf("cvs: circuit misses period %v by %v before assignment",
			c.ClockPeriodS, inc.WorstArrival()-c.ClockPeriodS)
	}
	fHz := 1 / c.ClockPeriodS
	power.PropagateActivity(c)
	before := power.Analyze(c, fHz)
	// The all-high baseline's area is its cells alone: no converters, no
	// second rail.
	areaBefore := c.TotalSize()

	assigned := 0
	// Reverse topological order: fanouts are decided before their drivers,
	// as the clustering rule requires.
	for i := len(c.Gates) - 1; i >= 0; i-- {
		g := &c.Gates[i]
		needsLC := false
		if opts.Clustering {
			okStructure := true
			for _, fo := range g.Fanouts {
				if c.Gates[fo].VddClass == 0 {
					okStructure = false
					break
				}
			}
			if !okStructure {
				continue
			}
			needsLC = g.IsPO
		} else {
			for _, fo := range g.Fanouts {
				if c.Gates[fo].VddClass == 0 {
					needsLC = true
					break
				}
			}
			needsLC = needsLC || g.IsPO
		}
		g.VddClass = 1
		g.NeedsLC = needsLC
		if inc.TryUpdate(i) {
			assigned++
			continue
		}
		g.VddClass = 0
		g.NeedsLC = false
	}

	after := power.Analyze(c, fHz)
	res := &Result{
		AssignedFraction: float64(assigned) / float64(len(c.Gates)),
		Before:           before,
		After:            after,
		TimingMet:        sta.Analyze(c).Met(),
	}
	for i := range c.Gates {
		if c.Gates[i].NeedsLC {
			res.LevelConverters++
		}
	}
	if before.DynamicW > 0 {
		res.DynamicSaving = 1 - after.DynamicW/before.DynamicW
	}
	grossSaved := before.DynamicW - (after.DynamicW - after.LevelConverterW)
	if grossSaved > 0 {
		res.LCOverheadFraction = after.LevelConverterW / grossSaved
	}
	if areaBefore > 0 {
		res.AreaOverhead = power.EstimateArea(c, lcAreaUnits, railAreaFraction).Total()/areaBefore - 1
	}
	return res, nil
}
