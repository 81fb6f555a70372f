package repeater

import (
	"fmt"

	"nanometer/internal/device"
	"nanometer/internal/wire"
)

// SignalVelocity returns the asymptotic propagation velocity (m/s) of an
// optimally repeated line: segment length over segment delay. Repeated
// lines are linear in length, so velocity is the natural figure of merit
// for "can a signal cross the die in the clock budget".
func SignalVelocity(d Driver, l wire.Line) float64 {
	spacing := OptimalSpacing(d, l)
	_, h := OptimalClosedForm(d, l, 1)
	t := segmentDelay(d, l, spacing, 1, h)
	if t <= 0 {
		return 0
	}
	return spacing / t
}

// ClockFeasibility evaluates the §2.2 premise from [9]: whether the ITRS
// global clock target can be met by repeated signaling, on scaled vs
// unscaled top-level wiring.
type ClockFeasibility struct {
	NodeNM int
	// ScaledMMPerCycle and UnscaledMMPerCycle are the distances a signal
	// covers in one global clock period on each wiring style.
	ScaledMMPerCycle, UnscaledMMPerCycle float64
	// DieEdgeMM is the span to beat (one die edge per handful of cycles).
	DieEdgeMM float64
	// ScaledCycles and UnscaledCycles are die-edge crossing times in clock
	// cycles.
	ScaledCycles, UnscaledCycles float64
}

// EvaluateClockFeasibilityIn computes the comparison for a node at 85 °C.
func EvaluateClockFeasibilityIn(lab *device.Lab, nodeNM int) (ClockFeasibility, error) {
	node, err := lab.Node(nodeNM)
	if err != nil {
		return ClockFeasibility{}, err
	}
	d, err := UnitDriverIn(lab, nodeNM, 358.15)
	if err != nil {
		return ClockFeasibility{}, err
	}
	scaled, err := wire.ForNodeIn(lab.Table(), nodeNM, wire.Global)
	if err != nil {
		return ClockFeasibility{}, err
	}
	unscaled := wire.UnscaledGlobal()
	edge, err := wire.CrossChipLengthIn(lab.Table(), nodeNM)
	if err != nil {
		return ClockFeasibility{}, err
	}
	vS := SignalVelocity(d, scaled)
	vU := SignalVelocity(d, unscaled)
	period := 1 / node.ClockHz
	out := ClockFeasibility{
		NodeNM:             nodeNM,
		ScaledMMPerCycle:   vS * period * 1e3,
		UnscaledMMPerCycle: vU * period * 1e3,
		DieEdgeMM:          edge * 1e3,
	}
	if vS > 0 {
		out.ScaledCycles = edge / vS * node.ClockHz
	}
	if vU > 0 {
		out.UnscaledCycles = edge / vU * node.ClockHz
	}
	if out.UnscaledCycles == 0 {
		return out, fmt.Errorf("repeater: degenerate velocity at %d nm", nodeNM)
	}
	return out, nil
}
