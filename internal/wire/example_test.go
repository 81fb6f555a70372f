package wire_test

import (
	"fmt"

	"nanometer/internal/itrs"
	"nanometer/internal/wire"
)

// The §2.2 premise in one number: a cross-chip wire's unrepeated RC
// diffusion at the 50 nm node dwarfs the clock period.
func ExampleLine_ElmoreDelay() {
	l, err := wire.ForNodeIn(itrs.Base(), 50, wire.Global)
	if err != nil {
		panic(err)
	}
	length, err := wire.CrossChipLengthIn(itrs.Base(), 50)
	if err != nil {
		panic(err)
	}
	d := l.ElmoreDelay(length)
	fmt.Printf("unrepeated cross-chip delay is tens of ns: %v\n", d > 10e-9 && d < 100e-9)
	// Output:
	// unrepeated cross-chip delay is tens of ns: true
}

// Crosstalk: aggressor alignment swings a long unshielded line's delay by a
// large fraction; shielding collapses the range.
func ExampleLine_DynamicDelayRange() {
	l, err := wire.ForNodeIn(itrs.Base(), 35, wire.Global)
	if err != nil {
		panic(err)
	}
	best, worst := l.DynamicDelayRange(5e-3, 500, 10e-15, false)
	sBest, sWorst := l.DynamicDelayRange(5e-3, 500, 10e-15, true)
	fmt.Printf("unshielded spread exists: %v; shielded spread collapses: %v\n",
		worst > best, sWorst == sBest)
	// Output:
	// unshielded spread exists: true; shielded spread collapses: true
}
