package repeater_test

import (
	"fmt"

	"nanometer/internal/device"
	"nanometer/internal/itrs"
	"nanometer/internal/repeater"
	"nanometer/internal/units"
	"nanometer/internal/wire"
)

// Optimally repeat a 10 mm global wire at the 50 nm node — the §2.2
// baseline signaling style.
func ExampleOptimize() {
	drv, err := repeater.UnitDriverIn(device.BaseLab(), 50, units.CelsiusToKelvin(85))
	if err != nil {
		panic(err)
	}
	line, err := wire.ForNodeIn(itrs.Base(), 50, wire.Global)
	if err != nil {
		panic(err)
	}
	ins := repeater.Optimize(drv, line, 10e-3)
	fmt.Printf("repeaters: %d, beats unrepeated RC: %v\n",
		ins.Count, ins.Delay < line.ElmoreDelay(10e-3))
	// Output:
	// repeaters: 54, beats unrepeated RC: true
}

// The chip-level repeater census: the paper's ~10⁴ repeaters at 180 nm
// growing to ~10⁶ at 50 nm, with >50 W of signaling power.
func ExampleTakeCensusIn() {
	c180, _ := repeater.TakeCensusIn(device.BaseLab(), 180, repeater.CensusParams{})
	c50, _ := repeater.TakeCensusIn(device.BaseLab(), 50, repeater.CensusParams{})
	fmt.Printf("180 nm ~10⁴: %v; 50 nm ~10⁶: %v; >50 W: %v\n",
		c180.Repeaters > 5e3 && c180.Repeaters < 1e5,
		c50.Repeaters > 5e5 && c50.Repeaters < 5e6,
		c50.SignalingPowerW > 50)
	// Output:
	// 180 nm ~10⁴: true; 50 nm ~10⁶: true; >50 W: true
}
