// Package sta is a static timing analyzer for the netlist substrate:
// topological arrival/required-time propagation, slack computation, critical
// path extraction, and the slack-distribution summaries the paper's
// multi-Vdd discussion relies on ("over half of all timing paths commonly
// use less than half the clock cycle").
package sta

import (
	"fmt"
	"math"

	"nanometer/internal/netlist"
)

// Result holds a full timing analysis of a circuit.
type Result struct {
	// ArrivalS[i] is the latest output arrival time of gate i; RequiredS[i]
	// the latest permissible; SlackS[i] their difference.
	ArrivalS, RequiredS, SlackS []float64
	// DelayS[i] caches each gate's propagation delay at analysis time.
	DelayS []float64
	// MaxDelayS is the critical (longest) path delay to any PO.
	MaxDelayS float64
	// PeriodS is the constraint the required times were computed against.
	PeriodS float64
	// CriticalPath lists gate IDs from a PI-adjacent gate to the worst PO.
	CriticalPath []int
	// WorstSlackS is the minimum slack over all gates.
	WorstSlackS float64
}

// Analyze runs timing on the circuit against its ClockPeriodS. A zero
// period analyzes against the critical delay itself (zero worst slack).
func Analyze(c *netlist.Circuit) *Result {
	n := len(c.Gates)
	r := &Result{
		ArrivalS:  make([]float64, n),
		RequiredS: make([]float64, n),
		SlackS:    make([]float64, n),
		DelayS:    make([]float64, n),
	}
	// Forward: arrival times in topological order.
	for i := range c.Gates {
		g := &c.Gates[i]
		r.DelayS[i] = c.GateDelay(g)
		in := 0.0
		for _, ref := range g.Inputs {
			if _, ok := netlist.IsPI(ref); ok {
				continue
			}
			if a := r.ArrivalS[ref]; a > in {
				in = a
			}
		}
		r.ArrivalS[i] = in + r.DelayS[i]
		if g.IsPO && r.ArrivalS[i] > r.MaxDelayS {
			r.MaxDelayS = r.ArrivalS[i]
		}
	}
	r.PeriodS = c.ClockPeriodS
	if r.PeriodS == 0 {
		r.PeriodS = r.MaxDelayS
	}
	backward(c, r.PeriodS, r.DelayS, r.RequiredS)
	r.WorstSlackS = math.Inf(1)
	for i := range c.Gates {
		r.SlackS[i] = r.RequiredS[i] - r.ArrivalS[i]
		if r.SlackS[i] < r.WorstSlackS {
			r.WorstSlackS = r.SlackS[i]
		}
	}
	r.CriticalPath = criticalPath(c, r)
	return r
}

// backward fills required with each gate's required time against period,
// given the gate delays.
func backward(c *netlist.Circuit, period float64, delay, required []float64) {
	for i := range required {
		required[i] = math.Inf(1)
	}
	for i := len(c.Gates) - 1; i >= 0; i-- {
		g := &c.Gates[i]
		if g.IsPO {
			if period < required[i] {
				required[i] = period
			}
		}
		for _, ref := range g.Inputs {
			if _, ok := netlist.IsPI(ref); ok {
				continue
			}
			need := required[i] - delay[i]
			if need < required[ref] {
				required[ref] = need
			}
		}
	}
}

// criticalPath walks back from the worst PO along worst-arrival fanins.
func criticalPath(c *netlist.Circuit, r *Result) []int {
	worst, worstArr := -1, -1.0
	for i := range c.Gates {
		if c.Gates[i].IsPO && r.ArrivalS[i] > worstArr {
			worst, worstArr = i, r.ArrivalS[i]
		}
	}
	if worst < 0 {
		return nil
	}
	var rev []int
	for g := worst; g >= 0; {
		rev = append(rev, g)
		next := -1
		nextArr := 0.0
		for _, ref := range c.Gates[g].Inputs {
			if _, ok := netlist.IsPI(ref); ok {
				continue
			}
			if r.ArrivalS[ref] >= nextArr {
				next, nextArr = ref, r.ArrivalS[ref]
			}
		}
		g = next
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Met reports whether the circuit meets its period (non-negative slack
// within a rounding epsilon).
func (r *Result) Met() bool { return r.WorstSlackS > -1e-15 }

// SetPeriodFromCritical sets the circuit's clock period to guard × the
// current critical delay (guard ≥ 1) and returns the period.
func SetPeriodFromCritical(c *netlist.Circuit, guard float64) (float64, error) {
	if guard < 1 {
		return 0, fmt.Errorf("sta: guard %g must be ≥ 1", guard)
	}
	saved := c.ClockPeriodS
	c.ClockPeriodS = 0
	r := Analyze(c)
	if r.MaxDelayS <= 0 {
		c.ClockPeriodS = saved
		return 0, fmt.Errorf("sta: circuit has no timing paths")
	}
	c.ClockPeriodS = r.MaxDelayS * guard
	return c.ClockPeriodS, nil
}

// PathUtilization returns the fraction of POs whose arrival time is at most
// frac of the period — the paper's slack-distribution statistic (over half
// of paths below half the cycle in high-end MPUs).
func (r *Result) PathUtilization(c *netlist.Circuit, frac float64) float64 {
	var pos, total int
	for i := range c.Gates {
		if !c.Gates[i].IsPO {
			continue
		}
		total++
		if r.ArrivalS[i] <= frac*r.PeriodS {
			pos++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(pos) / float64(total)
}

// SlackHistogram buckets gate slacks (normalized to the period) into bins
// and returns the counts.
func (r *Result) SlackHistogram(bins int) []int {
	out := make([]int, bins)
	for _, s := range r.SlackS {
		f := s / r.PeriodS
		idx := int(f * float64(bins))
		if idx < 0 {
			idx = 0
		}
		if idx >= bins {
			idx = bins - 1
		}
		out[idx]++
	}
	return out
}
