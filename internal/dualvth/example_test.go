package dualvth_test

import (
	"fmt"

	"nanometer/internal/device"
	"nanometer/internal/dualvth"
	"nanometer/internal/netlist"
	"nanometer/internal/sta"
)

// Dual-Vth assignment on a timing-tight block (§3.2.2): leakage falls by
// the published 40–80 % band while the critical path keeps the low
// threshold and the clock holds.
func ExampleAssign() {
	tech, err := netlist.NewTechIn(device.BaseLab(), 100, 0.65)
	if err != nil {
		panic(err)
	}
	p := netlist.DefaultGenParams()
	p.Gates = 1200
	p.Seed = 2
	c, err := netlist.Generate(tech, p)
	if err != nil {
		panic(err)
	}
	if _, err := sta.SetPeriodFromCritical(c, 1.0); err != nil {
		panic(err)
	}
	res, err := dualvth.Assign(c, dualvth.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("leakage cut in the 40-80%%+ band: %v; delay penalty under 2%%: %v; met: %v\n",
		res.LeakageSaving > 0.4, res.DelayPenalty < 0.02, res.TimingMet)
	// Output:
	// leakage cut in the 40-80%+ band: true; delay penalty under 2%: true; met: true
}
