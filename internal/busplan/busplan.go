// Package busplan implements the EDA tool the paper's conclusion #2 calls
// for: "alternative techniques to CMOS repeaters for global signaling need
// to be investigated and mated with EDA tools (similar to buffer insertion
// tools today but using different primitive components)". Given a set of
// global routes with latency budgets and activities, the planner picks a
// signaling primitive per route — optimally repeated CMOS, single-ended
// low-swing, or shielded differential low-swing — minimizing total power
// subject to latency, noise closure, and a routing-track budget.
package busplan

import (
	"fmt"
	"math"
	"sort"

	"nanometer/internal/device"
	"nanometer/internal/itrs"
	"nanometer/internal/repeater"
	"nanometer/internal/signaling"
	"nanometer/internal/units"
	"nanometer/internal/wire"
)

// Route is one global net (or bus bit) to plan.
type Route struct {
	Name string
	// LengthM is the route length.
	LengthM float64
	// LatencyBudgetS is the allowed propagation delay.
	LatencyBudgetS float64
	// ToggleHz is the signal's transition rate (activity × clock).
	ToggleHz float64
}

// Choice is the planner's decision for one route.
type Choice struct {
	Route  Route
	Scheme signaling.Scheme
	// SwingFrac is the selected swing for reduced-swing schemes (the
	// noise-limited minimum plus margin).
	SwingFrac float64
	// DelayS and PowerW are the achieved figures.
	DelayS, PowerW float64
	// Tracks is the routing-track cost (shield-amortized).
	Tracks float64
	// Repeaters counts inserted repeaters (repeated CMOS only).
	Repeaters int
}

// Plan is the full assignment.
type Plan struct {
	Choices []Choice
	// TotalPowerW, TotalTracks aggregate the assignment.
	TotalPowerW, TotalTracks float64
	// BaselinePowerW is the all-repeated-CMOS power for comparison.
	BaselinePowerW float64
	// Saving is 1 − total/baseline.
	Saving float64
}

// Planner holds the per-node context.
type Planner struct {
	NodeNM int
	// RequiredSNR is the noise-closure target (default 2).
	RequiredSNR float64
	// SwingMargin multiplies the noise-limited minimum swing (default 1.3).
	SwingMargin float64
	// TrackBudget bounds the total routing tracks (0 = unbounded).
	TrackBudget float64

	node   itrs.Node
	line   wire.Line
	driver repeater.Driver
}

// NewPlannerIn builds a planner for a node's global tier at 85 °C.
func NewPlannerIn(lab *device.Lab, nodeNM int) (*Planner, error) {
	node, err := lab.Node(nodeNM)
	if err != nil {
		return nil, err
	}
	line, err := wire.ForNodeIn(lab.Table(), nodeNM, wire.Global)
	if err != nil {
		return nil, err
	}
	drv, err := repeater.UnitDriverIn(lab, nodeNM, units.CelsiusToKelvin(85))
	if err != nil {
		return nil, err
	}
	return &Planner{
		NodeNM:      nodeNM,
		RequiredSNR: 2,
		SwingMargin: 1.3,
		node:        node,
		line:        line,
		driver:      drv,
	}, nil
}

// candidates evaluates every primitive on a route; infeasible options are
// omitted.
func (p *Planner) candidates(r Route) []Choice {
	var out []Choice
	// 1. Optimally repeated full-swing CMOS: the baseline. Always closes
	// noise; feasible if the latency budget holds.
	ins := repeater.Optimize(p.driver, p.line, r.LengthM)
	if ins.Delay <= r.LatencyBudgetS {
		out = append(out, Choice{
			Route: r, Scheme: signaling.FullSwingRepeated,
			SwingFrac: 1,
			DelayS:    ins.Delay,
			PowerW:    ins.EnergyPerTransition * r.ToggleHz,
			Tracks:    1,
			Repeaters: ins.Count,
		})
	}
	// 2/3. Reduced-swing schemes at the noise-limited swing plus margin.
	for _, scheme := range []signaling.Scheme{signaling.LowSwing, signaling.DifferentialLowSwing} {
		minSwing, err := signaling.MinTolerableSwing(p.line, p.node.Vdd, scheme, true, p.RequiredSNR)
		if err != nil {
			continue // cannot close noise even shielded
		}
		swing := math.Min(1, minSwing*p.SwingMargin)
		link := signaling.Link{
			Scheme:  scheme,
			Line:    p.line,
			LengthM: r.LengthM,
			Vdd:     p.node.Vdd,
			SwingV:  swing * p.node.Vdd,
		}
		if err := link.Validate(); err != nil {
			continue
		}
		if link.Delay() > r.LatencyBudgetS {
			continue
		}
		out = append(out, Choice{
			Route: r, Scheme: scheme,
			SwingFrac: swing,
			DelayS:    link.Delay(),
			PowerW:    link.Power(r.ToggleHz),
			Tracks:    link.RoutingTracks(true),
		})
	}
	return out
}

// Assign plans every route: per route the minimum-power feasible primitive,
// then, if a track budget is set and exceeded, routes are migrated back to
// cheaper-track options in order of least power regret.
func (p *Planner) Assign(routes []Route) (*Plan, error) {
	plan := &Plan{}
	type alt struct {
		idx     int
		options []Choice // sorted by power ascending
	}
	var alts []alt
	for i, r := range routes {
		if r.LengthM <= 0 || r.LatencyBudgetS <= 0 {
			return nil, fmt.Errorf("busplan: route %q has non-positive length or budget", r.Name)
		}
		cands := p.candidates(r)
		if len(cands) == 0 {
			return nil, fmt.Errorf("busplan: route %q (%.1f mm in %.0f ps) has no feasible primitive",
				r.Name, r.LengthM*1e3, r.LatencyBudgetS*1e12)
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].PowerW < cands[b].PowerW })
		alts = append(alts, alt{idx: i, options: cands})
		plan.Choices = append(plan.Choices, cands[0])

		// Baseline: repeated CMOS when feasible; otherwise the cheapest
		// feasible option stands in.
		base := cands[0]
		for _, c := range cands {
			if c.Scheme == signaling.FullSwingRepeated {
				base = c
				break
			}
		}
		plan.BaselinePowerW += base.PowerW
	}
	for _, c := range plan.Choices {
		plan.TotalPowerW += c.PowerW
		plan.TotalTracks += c.Tracks
	}
	// Track-budget repair: while over budget, move the route whose
	// next-cheaper-track option costs the least extra power.
	if p.TrackBudget > 0 {
		for plan.TotalTracks > p.TrackBudget {
			bestIdx, bestOpt := -1, Choice{}
			bestRegret := math.Inf(1)
			for ai, a := range alts {
				cur := plan.Choices[a.idx]
				for _, o := range a.options {
					if o.Tracks < cur.Tracks {
						regret := o.PowerW - cur.PowerW
						if regret < bestRegret {
							bestRegret = regret
							bestIdx, bestOpt = ai, o
						}
					}
				}
			}
			if bestIdx < 0 {
				return nil, fmt.Errorf("busplan: track budget %.1f unreachable (need %.1f)",
					p.TrackBudget, plan.TotalTracks)
			}
			i := alts[bestIdx].idx
			plan.TotalPowerW += bestOpt.PowerW - plan.Choices[i].PowerW
			plan.TotalTracks += bestOpt.Tracks - plan.Choices[i].Tracks
			plan.Choices[i] = bestOpt
		}
	}
	if plan.BaselinePowerW > 0 {
		plan.Saving = 1 - plan.TotalPowerW/plan.BaselinePowerW
	}
	return plan, nil
}

// SchemeCounts tallies the plan's primitive mix.
func (pl *Plan) SchemeCounts() map[signaling.Scheme]int {
	out := map[signaling.Scheme]int{}
	for _, c := range pl.Choices {
		out[c.Scheme]++
	}
	return out
}
