package mcml_test

import (
	"fmt"

	"nanometer/internal/device"
	"nanometer/internal/gate"
	"nanometer/internal/itrs"
	"nanometer/internal/mcml"
	"nanometer/internal/units"
)

// The §4 endgame option: MCML matches the CMOS gate's speed from a steered
// bias current, and its supply ripple is orders of magnitude below the CMOS
// switching spike.
func ExampleCompare() {
	inv, err := gate.ReferenceInverterIn(device.BaseLab(), 35)
	if err != nil {
		panic(err)
	}
	node := itrs.Base().MustNode(35)
	cmp, err := mcml.Compare(inv, node.Vdd, units.CelsiusToKelvin(85), 0.5, node.LocalClockHz)
	if err != nil {
		panic(err)
	}
	fmt.Printf("di/dt relief ≫10×: %v; crossover activity exists: %v\n",
		cmp.CurrentRippleRatio < 0.1, cmp.CrossoverActivity > 0)
	// Output:
	// di/dt relief ≫10×: true; crossover activity exists: true
}
