package resize_test

import (
	"fmt"

	"nanometer/internal/device"
	"nanometer/internal/netlist"
	"nanometer/internal/resize"
	"nanometer/internal/sta"
)

// The §3.3 sublinearity argument: downsizing an oversized netlist saves
// much less power than silicon area, because the wire capacitance on every
// net stays put.
func ExampleDownsize() {
	tech, err := netlist.NewTechIn(device.BaseLab(), 100, 0.65)
	if err != nil {
		panic(err)
	}
	p := netlist.DefaultGenParams()
	p.Gates = 1000
	p.Seed = 2
	p.InitialSize = 4
	c, err := netlist.Generate(tech, p)
	if err != nil {
		panic(err)
	}
	if _, err := sta.SetPeriodFromCritical(c, 1.1); err != nil {
		panic(err)
	}
	res, err := resize.Downsize(c, resize.DefaultOptions())
	if err != nil {
		panic(err)
	}
	fmt.Printf("sheds size: %v; power return sublinear: %v; met: %v\n",
		res.SizeReduction > 0.3, res.Sublinearity < 0.9, res.TimingMet)
	// Output:
	// sheds size: true; power return sublinear: true; met: true
}
