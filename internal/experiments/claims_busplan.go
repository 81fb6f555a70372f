package experiments

import (
	"fmt"

	"nanometer/internal/busplan"
	"nanometer/internal/device"
	"nanometer/internal/repeater"
	"nanometer/internal/result"
	"nanometer/internal/signaling"
)

// BusPlan is the C13 experiment: the conclusion-#2 EDA tool — a
// signaling-primitive planner over a realistic 50 nm global-route mix,
// showing the power a repeater-only flow leaves on the table.
func BusPlan(lab *device.Lab, _ int) (*result.Result, error) {
	const nodeNM = 50
	plan, err := planBusesAt(lab, nodeNM)
	if err != nil {
		return nil, err
	}
	counts := plan.SchemeCounts()
	c := &result.Claim{}
	c.Num("node_nm", nodeNM, "nm").
		Num("routes", float64(len(plan.Choices)), "").
		Num("repeated", float64(counts[signaling.FullSwingRepeated]), "").
		Num("low_swing", float64(counts[signaling.LowSwing]), "").
		Num("differential", float64(counts[signaling.DifferentialLowSwing]), "").
		Num("total_power_w", plan.TotalPowerW, "W").
		Num("baseline_power_w", plan.BaselinePowerW, "W").
		Num("saving", plan.Saving, "").
		Num("total_tracks", plan.TotalTracks, "")
	res := &result.Result{}
	res.AddClaim(c)
	return res, nil
}

// planBusesAt plans a representative global-route population at a node:
// latency-critical hops, relaxed cross-chip buses, and high-activity
// datapath links.
func planBusesAt(lab *device.Lab, nodeNM int) (*busplan.Plan, error) {
	node, err := lab.Node(nodeNM)
	if err != nil {
		return nil, err
	}
	period := 1 / node.ClockHz
	// Latency-critical hop length: 1.2 clock cycles' worth of repeated-
	// signal travel at this node, under a 1.5-cycle budget — reachable by
	// repeaters, out of reach for unrepeated low-swing links.
	cf, err := repeater.EvaluateClockFeasibilityIn(lab, nodeNM)
	if err != nil {
		return nil, err
	}
	hopLen := 1.2 * cf.ScaledMMPerCycle * 1e-3
	var routes []busplan.Route
	for i := 0; i < 12; i++ {
		routes = append(routes, busplan.Route{
			Name: fmt.Sprintf("hop%02d", i), LengthM: hopLen,
			LatencyBudgetS: 1.5 * period, ToggleHz: 0.15 * node.ClockHz,
		})
	}
	for i := 0; i < 24; i++ {
		routes = append(routes, busplan.Route{
			Name: fmt.Sprintf("bus%02d", i), LengthM: 8e-3,
			LatencyBudgetS: 20 * period, ToggleHz: 0.15 * node.ClockHz,
		})
	}
	for i := 0; i < 12; i++ {
		routes = append(routes, busplan.Route{
			Name: fmt.Sprintf("dp%02d", i), LengthM: 5e-3,
			LatencyBudgetS: 8 * period, ToggleHz: 0.4 * node.ClockHz,
		})
	}
	p, err := busplan.NewPlannerIn(lab, nodeNM)
	if err != nil {
		return nil, err
	}
	return p.Assign(routes)
}
