package power_test

import (
	"fmt"

	"nanometer/internal/device"
	"nanometer/internal/netlist"
	"nanometer/internal/power"
)

// Analyze a block's power and read the per-supply breakdown the multi-Vdd
// techniques act on.
func ExampleAnalyze() {
	tech, err := netlist.NewTechIn(device.BaseLab(), 100, 0.65)
	if err != nil {
		panic(err)
	}
	p := netlist.DefaultGenParams()
	p.Gates = 500
	p.Seed = 4
	c, err := netlist.Generate(tech, p)
	if err != nil {
		panic(err)
	}
	rep := power.Analyze(c, 2e9)
	fmt.Printf("dynamic and leakage both positive: %v; everything on Vdd,h before CVS: %v\n",
		rep.DynamicW > 0 && rep.LeakageW > 0,
		rep.ByVddDynamicW[1] == 0)
	// Output:
	// dynamic and leakage both positive: true; everything on Vdd,h before CVS: true
}
