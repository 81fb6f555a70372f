package core_test

import (
	"fmt"

	"nanometer/internal/core"
	"nanometer/internal/device"
	"nanometer/internal/itrs"
	"nanometer/internal/netlist"
	"nanometer/internal/sta"
	"nanometer/internal/units"
)

// The §3.3 headline: at 35 nm, dropping the supply to 0.2 V while scaling
// the threshold to hold static power costs little delay and buys 89 % of
// the dynamic power back (Figure 3's "compelling results").
func ExampleExplorer() {
	node := itrs.Base().MustNode(35)
	ex, err := core.NewExplorerIn(device.BaseLab(), 35, units.RoomTemperature, 0.1, node.ClockHz)
	if err != nil {
		panic(err)
	}
	op, err := ex.At(core.ConstantPstatic, 0.2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("delay ×%.1f, Pdyn -%.0f%%, Pstatic ×%.2f\n",
		op.DelayNorm, (1-op.PdynNorm)*100, op.PstaticNorm)
	// Output:
	// delay ×1.4, Pdyn -89%, Pstatic ×1.00
}

// The ITRS constraint Pdyn ≥ 10·Pstatic admits a 0.44 V supply at 35 nm —
// a 46 % dynamic-power saving (§3.3).
func ExampleExplorer_VddFloor() {
	node := itrs.Base().MustNode(35)
	ex, err := core.NewExplorerIn(device.BaseLab(), 35, units.RoomTemperature, 0.1, node.ClockHz)
	if err != nil {
		panic(err)
	}
	vdd, savings, err := ex.VddFloor(core.ConstantPstatic, 10)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Vdd floor %.2f V, dynamic saving %.0f%%\n", vdd, savings*100)
	// Output:
	// Vdd floor 0.44 V, dynamic saving 46%
}

// The combined multi-Vdd + multi-Vth + re-sizing pipeline on a generated
// block.
func ExampleRunFlow() {
	tech, err := netlist.NewTechIn(device.BaseLab(), 100, 0.65)
	if err != nil {
		panic(err)
	}
	p := netlist.DefaultGenParams()
	p.Gates = 1000
	p.Seed = 42
	c, err := netlist.Generate(tech, p)
	if err != nil {
		panic(err)
	}
	if _, err := sta.SetPeriodFromCritical(c, 1.15); err != nil {
		panic(err)
	}
	res, err := core.RunFlow(c, core.DefaultFlowOptions())
	if err != nil {
		panic(err)
	}
	fmt.Printf("timing met: %v, power reduced: %v\n", res.TimingMet, res.TotalSaving > 0.3)
	// Output:
	// timing met: true, power reduced: true
}
