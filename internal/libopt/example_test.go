package libopt_test

import (
	"fmt"

	"nanometer/internal/device"
	"nanometer/internal/libopt"
	"nanometer/internal/netlist"
	"nanometer/internal/sta"
)

// The §2.3 granularity ladder: a coarse legacy library wastes power on
// overdriven small loads; on-the-fly continuous cells recover it at fixed
// timing.
func ExampleCompareLibraries() {
	tech, err := netlist.NewTechIn(device.BaseLab(), 100, 0.65)
	if err != nil {
		panic(err)
	}
	p := netlist.DefaultGenParams()
	p.Gates = 600
	p.Seed = 2
	p.InitialSize = 8
	c, err := netlist.Generate(tech, p)
	if err != nil {
		panic(err)
	}
	if _, err := sta.SetPeriodFromCritical(c, 1.15); err != nil {
		panic(err)
	}
	results, err := libopt.CompareLibraries(c, []libopt.Library{
		libopt.Geometric("coarse", 4, 64, 2),
		libopt.Geometric("rich", 1, 64, 1.3),
		libopt.Continuous(0.25),
	})
	if err != nil {
		panic(err)
	}
	coarse := results[0].Power.TotalW()
	rich := results[1].Power.TotalW()
	cont := results[2].Power.TotalW()
	fmt.Printf("finer granularity saves power: %v\n", cont < rich && rich < coarse)
	// Output:
	// finer granularity saves power: true
}
