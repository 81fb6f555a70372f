package netlist_test

import (
	"fmt"

	"nanometer/internal/device"
	"nanometer/internal/netlist"
)

// The two-supply, two-threshold technology binding of §2.4/§3.2.
func ExampleNewTechIn() {
	tech, err := netlist.NewTechIn(device.BaseLab(), 100, 0.65)
	if err != nil {
		panic(err)
	}
	fmt.Printf("supplies: %.2f / %.2f V; thresholds: %.2f / %.2f V\n",
		tech.VddH(), tech.Vdd(1), tech.VthLevels[0], tech.VthLevels[1])
	// Output:
	// supplies: 1.20 / 0.78 V; thresholds: 0.22 / 0.32 V
}
