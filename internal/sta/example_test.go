package sta_test

import (
	"fmt"

	"nanometer/internal/device"
	"nanometer/internal/netlist"
	"nanometer/internal/sta"
)

// Analyze timing on a generated block and read the slack-distribution
// statistic the paper's multi-Vdd discussion rests on.
func ExampleAnalyze() {
	tech, err := netlist.NewTechIn(device.BaseLab(), 100, 0.65)
	if err != nil {
		panic(err)
	}
	p := netlist.DefaultGenParams()
	p.Gates = 1000
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
	r := sta.Analyze(c)
	fmt.Printf("timing met: %v; over half the paths below half the cycle: %v\n",
		r.Met(), r.PathUtilization(c, 0.5) > 0.5)
	// Output:
	// timing met: true; over half the paths below half the cycle: true
}

// The incremental engine accepts edits that fit the period and rolls back
// ones that do not — the machinery under every optimization loop here.
func ExampleIncremental() {
	tech, err := netlist.NewTechIn(device.BaseLab(), 100, 0.65)
	if err != nil {
		panic(err)
	}
	p := netlist.DefaultGenParams()
	p.Gates = 500
	p.Seed = 3
	c, err := netlist.Generate(tech, p)
	if err != nil {
		panic(err)
	}
	if _, err := sta.SetPeriodFromCritical(c, 1.0); err != nil {
		panic(err)
	}
	inc := sta.NewIncremental(c)
	// Find a critical gate (zero slack) and try to slow it: rejected.
	full := sta.Analyze(c)
	critical := full.CriticalPath[0]
	old := c.Gates[critical].Size
	c.Gates[critical].Size = old / 4
	ok := inc.TryUpdate(critical)
	if !ok {
		c.Gates[critical].Size = old
	}
	fmt.Printf("slowing a zero-slack gate accepted: %v; still met: %v\n", ok, inc.Met())
	// Output:
	// slowing a zero-slack gate accepted: false; still met: true
}
