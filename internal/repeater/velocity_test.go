package repeater

import (
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/itrs"
	"nanometer/internal/wire"
)

func TestSignalVelocity(t *testing.T) {
	d, err := UnitDriverIn(device.BaseLab(), 50, t85)
	if err != nil {
		t.Fatal(err)
	}
	scaled := mustGlobal(t, 50)
	unscaled := wire.UnscaledGlobal()
	vS := SignalVelocity(d, scaled)
	vU := SignalVelocity(d, unscaled)
	if vS <= 0 || vU <= 0 {
		t.Fatalf("velocities must be positive: %g, %g", vS, vU)
	}
	if vU <= vS {
		t.Fatalf("fat unscaled wiring must be faster: %g vs %g", vU, vS)
	}
	// Velocity is length-independent: a repeated 10 mm line's delay matches
	// length/velocity within a few percent.
	ins := Optimize(d, scaled, 10e-3)
	fromV := 10e-3 / vS
	if ins.Delay < 0.9*fromV || ins.Delay > 1.15*fromV {
		t.Fatalf("velocity model inconsistent with direct optimization: %g vs %g", ins.Delay, fromV)
	}
}

func TestClockFeasibilityReproducesRef9(t *testing.T) {
	// The §2.2 premise from [9]: ITRS global clocks remain usable if the
	// top-level wiring does not scale; scaled wiring collapses.
	var prevScaled float64
	for _, nm := range itrs.Base().NodesNM() {
		cf, err := EvaluateClockFeasibilityIn(device.BaseLab(), nm)
		if err != nil {
			t.Fatalf("%d nm: %v", nm, err)
		}
		if cf.UnscaledCycles > cf.ScaledCycles+1e-9 {
			t.Fatalf("%d nm: unscaled wiring must not be slower (%g vs %g cycles)",
				nm, cf.UnscaledCycles, cf.ScaledCycles)
		}
		if nm < 180 && cf.ScaledCycles < prevScaled {
			t.Fatalf("%d nm: scaled-wiring crossing time must grow with scaling", nm)
		}
		prevScaled = cf.ScaledCycles
	}
	cf35, err := EvaluateClockFeasibilityIn(device.BaseLab(), 35)
	if err != nil {
		t.Fatal(err)
	}
	// Scaled wiring needs ~an order of magnitude more cycles per die edge;
	// unscaled wiring holds it to a small pipeline depth.
	if cf35.ScaledCycles < 3*cf35.UnscaledCycles {
		t.Fatalf("35 nm: scaled (%g) vs unscaled (%g) cycles — the unscaled advantage is the premise",
			cf35.ScaledCycles, cf35.UnscaledCycles)
	}
	if cf35.UnscaledCycles > 4 {
		t.Fatalf("35 nm: unscaled wiring should cross the die in a few cycles, got %g", cf35.UnscaledCycles)
	}
	if _, err := EvaluateClockFeasibilityIn(device.BaseLab(), 65); err == nil {
		t.Fatalf("unknown node must error")
	}
}
