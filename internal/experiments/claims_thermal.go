package experiments

import (
	"fmt"

	"nanometer/internal/device"
	"nanometer/internal/result"
	"nanometer/internal/thermal"
)

// DTM is the C1 experiment at 50 nm: dynamic thermal management lets the
// package be designed for the effective worst case instead of the
// theoretical worst case.
func DTM(lab *device.Lab, _ int) (*result.Result, error) { return dtmAt(lab, 50) }

// dtmAt runs the C1 experiment for a node.
func dtmAt(lab *device.Lab, nodeNM int) (*result.Result, error) {
	node, err := lab.Node(nodeNM)
	if err != nil {
		return nil, err
	}
	// theoWorst is the power-virus dissipation; effWorst the highest
	// sustained power real workloads reach under the DTM controller.
	theoWorst := node.MaxPowerW

	// Package sized for the theoretical worst case.
	pkgTheo := thermal.Package{ThetaJA: node.ThetaJA, AmbientC: node.AmbientTempC}
	const cth = 40.0 // J/°C die+spreader
	const dt = 0.01  // 10 ms control interval
	ctrl := thermal.ClockThrottle{DutyCycle: 0.5}

	// A spread of power-hungry application traces.
	var traces [][]float64
	for seed := int64(1); seed <= 5; seed++ {
		p := thermal.DefaultWorkload(node.MaxPowerW)
		p.Seed = seed
		traces = append(traces, p.Generate(4000))
	}
	effWorst := thermal.EffectiveWorstCase(pkgTheo, cth, node.JunctionTempC, ctrl, traces, dt)

	// Cooling-solution costs for the two design points.
	costTheo, err := thermal.SelectCooling(theoWorst, node.JunctionTempC, node.AmbientTempC)
	if err != nil {
		return nil, err
	}
	costEff, err := thermal.SelectCooling(effWorst, node.JunctionTempC, node.AmbientTempC)
	if err != nil {
		return nil, err
	}
	var costRatio float64
	if costEff.CostUSD > 0 {
		costRatio = costTheo.CostUSD / costEff.CostUSD
	}

	// Power virus through a package sized only for the effective worst
	// case: DTM must hold the junction at the limit while throughput
	// degrades gracefully.
	thetaEff, err := thermal.RequiredThetaJA(effWorst, node.JunctionTempC, node.AmbientTempC)
	if err != nil {
		return nil, err
	}
	plant := thermal.NewPlant(thermal.Package{ThetaJA: thetaEff, AmbientC: node.AmbientTempC}, cth)
	sensor := &thermal.Sensor{TripC: node.JunctionTempC - 1, HysteresisC: 2}
	virus := thermal.PowerVirus(node.MaxPowerW, 8000)
	vr := thermal.Simulate(plant, sensor, ctrl, virus, dt)

	// The Intel 65→75 W observation at the 1999 design point: cooling-cost
	// ratio of a 75 W design over a 65 W design.
	c65, err := thermal.SelectCooling(65, 100, 45)
	if err != nil {
		return nil, err
	}
	c75, err := thermal.SelectCooling(75, 100, 45)
	if err != nil {
		return nil, err
	}
	var intel65to75 float64
	if c65.CostUSD > 0 {
		intel65to75 = c75.CostUSD / c65.CostUSD
	}

	// effective_fraction is the paper's ≈75 %, theta_ja_headroom the
	// allowable θja relief (≈33 %).
	c := &result.Claim{}
	c.Num("node_nm", float64(nodeNM), "nm").
		Num("theoretical_worst_w", theoWorst, "W").
		Num("effective_worst_w", effWorst, "W").
		Num("effective_fraction", effWorst/theoWorst, "").
		Num("theta_ja_headroom", thermal.ThetaJAHeadroom(theoWorst, effWorst), "").
		Str("cooling_theoretical_class", fmt.Sprint(costTheo.Class)).
		Num("cooling_theoretical_cost_usd", costTheo.CostUSD, "USD").
		Str("cooling_effective_class", fmt.Sprint(costEff.Class)).
		Num("cooling_effective_cost_usd", costEff.CostUSD, "USD").
		Num("cooling_cost_ratio", costRatio, "").
		Num("virus_peak_temp_c", vr.PeakTempC, "°C").
		Num("virus_throughput", vr.Throughput, "").
		Num("intel_65_to_75", intel65to75, "")
	res := &result.Result{}
	res.AddClaim(c)
	return res, nil
}
