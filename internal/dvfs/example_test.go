package dvfs_test

import (
	"fmt"

	"nanometer/internal/device"
	"nanometer/internal/dvfs"
)

// Transmeta-style voltage scaling (§2.1): at partial utilization, walking
// the supply down returns quadratically more energy than gating the clock
// at full voltage.
func ExampleTable_EnergyVsThrottling() {
	tb, err := dvfs.NewTableIn(device.BaseLab(), 100, 6, 0.55, 0)
	if err != nil {
		panic(err)
	}
	// A workload running at 40 % utilization.
	utils := make([]float64, 100)
	for i := range utils {
		utils[i] = 0.4
	}
	ratio := tb.EnergyVsThrottling(utils)
	fmt.Printf("DVFS uses a fraction of the clock-gating energy: %v\n", ratio < 0.7)
	// Output:
	// DVFS uses a fraction of the clock-gating energy: true
}

// The governor descends the table under light load and returns under bursts.
func ExampleGovernor() {
	tb, err := dvfs.NewTableIn(device.BaseLab(), 100, 6, 0.55, 0)
	if err != nil {
		panic(err)
	}
	g := dvfs.NewGovernor(tb)
	var low dvfs.OperatingPoint
	for i := 0; i < 10; i++ {
		low = g.Step(0.1)
	}
	var high dvfs.OperatingPoint
	for i := 0; i < 10; i++ {
		high = g.Step(0.99)
	}
	fmt.Printf("idle descends: %v; burst recovers the top point: %v\n",
		low.Vdd < tb.Points[0].Vdd, high.Vdd == tb.Points[0].Vdd)
	// Output:
	// idle descends: true; burst recovers the top point: true
}
