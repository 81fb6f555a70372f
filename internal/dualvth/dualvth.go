// Package dualvth implements slack-driven dual-threshold assignment
// (§3.2.2): starting from an all-low-Vth (fast, leaky) implementation, gates
// off the critical paths move to the high threshold, cutting subthreshold
// leakage with minimal delay impact. The greedy is sensitivity-ordered
// (leakage saved per delay consumed), in the spirit of Sirichotiyakul [22]
// and Wei [39]; typical published results are 40–80 % leakage reduction.
package dualvth

import (
	"fmt"
	"sort"

	"nanometer/internal/netlist"
	"nanometer/internal/power"
	"nanometer/internal/sta"
)

// Options tunes the assignment.
type Options struct {
	// Order selects the candidate ordering.
	Order Order
}

// Order is the candidate-ordering policy.
type Order int

const (
	// BySensitivity orders by leakage-saved per delay-added (default).
	BySensitivity Order = iota
	// BySlack orders by descending slack (the naive heuristic; kept as an
	// ablation).
	BySlack
)

// Result summarizes an assignment.
type Result struct {
	// HighVthFraction is the share of gates assigned the high threshold.
	HighVthFraction float64
	// Before and After are the power reports at 1/period.
	Before, After *power.Report
	// LeakageSaving is 1 − after/before leakage.
	LeakageSaving float64
	// DelayPenalty is the relative critical-path increase vs the all-low
	// design (0 when the period still binds elsewhere).
	DelayPenalty float64
	// TimingMet confirms the final circuit meets its period.
	TimingMet bool
}

// Assign moves every gate whose slack tolerates the high threshold. The
// circuit is modified in place and must meet its period at all-low-Vth.
func Assign(c *netlist.Circuit, opts Options) (*Result, error) {
	if len(c.Tech.VthLevels) < 2 {
		return nil, fmt.Errorf("dualvth: tech has a single threshold")
	}
	if c.ClockPeriodS <= 0 {
		return nil, fmt.Errorf("dualvth: circuit has no clock period")
	}
	inc := sta.NewIncremental(c)
	if !inc.Met() {
		return nil, fmt.Errorf("dualvth: circuit misses period %v by %v before assignment",
			c.ClockPeriodS, inc.WorstArrival()-c.ClockPeriodS)
	}
	baseDelay := inc.WorstArrival()
	fHz := 1 / c.ClockPeriodS
	power.PropagateActivity(c)
	before := power.Analyze(c, fHz)
	var slack []float64
	if opts.Order == BySlack {
		slack = inc.Slacks()
	}

	type cand struct {
		id    int
		score float64
	}
	cands := make([]cand, 0, len(c.Gates))
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.VthClass != 0 {
			continue
		}
		load := c.LoadOn(g)
		dLow := c.Tech.CellDelay(g.Kind, len(g.Inputs), g.VddClass, 0, g.Size, load)
		dHigh := c.Tech.CellDelay(g.Kind, len(g.Inputs), g.VddClass, 1, g.Size, load)
		leakSave := c.Tech.CellLeakage(g.Kind, len(g.Inputs), g.VddClass, 0, g.Size) -
			c.Tech.CellLeakage(g.Kind, len(g.Inputs), g.VddClass, 1, g.Size)
		var score float64
		switch opts.Order {
		case BySlack:
			score = slack[i]
		default:
			dd := dHigh - dLow
			if dd <= 0 {
				dd = 1e-18
			}
			score = leakSave / dd
		}
		cands = append(cands, cand{i, score})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].score > cands[b].score })

	assigned := 0
	for _, cd := range cands {
		g := &c.Gates[cd.id]
		g.VthClass = 1
		if inc.TryUpdate(cd.id) {
			assigned++
		} else {
			g.VthClass = 0
		}
	}

	after := power.Analyze(c, fHz)
	final := sta.Analyze(c)
	res := &Result{
		HighVthFraction: float64(assigned) / float64(len(c.Gates)),
		Before:          before,
		After:           after,
		TimingMet:       final.Met(),
	}
	if before.LeakageW > 0 {
		res.LeakageSaving = 1 - after.LeakageW/before.LeakageW
	}
	if baseDelay > 0 {
		res.DelayPenalty = final.MaxDelayS/baseDelay - 1
	}
	return res, nil
}
