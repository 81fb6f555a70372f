package cvs_test

import (
	"fmt"

	"nanometer/internal/cvs"
	"nanometer/internal/device"
	"nanometer/internal/netlist"
	"nanometer/internal/sta"
)

// Clustered voltage scaling on a media-processor-like block (§2.4): a large
// share of gates moves to Vdd,l = 0.65·Vdd,h with conversion confined to
// the register boundaries.
func ExampleAssign() {
	tech, err := netlist.NewTechIn(device.BaseLab(), 100, 0.65)
	if err != nil {
		panic(err)
	}
	p := netlist.DefaultGenParams()
	p.Gates = 1500
	p.Levels = 30
	p.ShortPathFraction = 0.5
	p.Seed = 7
	c, err := netlist.Generate(tech, p)
	if err != nil {
		panic(err)
	}
	if _, err := sta.SetPeriodFromCritical(c, 1.15); err != nil {
		panic(err)
	}
	res, err := cvs.Assign(c, cvs.DefaultOptions())
	if err != nil {
		panic(err)
	}
	fmt.Printf("majority at Vdd,l: %v; saves dynamic power: %v; timing met: %v\n",
		res.AssignedFraction > 0.5, res.DynamicSaving > 0.1, res.TimingMet)
	// Output:
	// majority at Vdd,l: true; saves dynamic power: true; timing met: true
}
