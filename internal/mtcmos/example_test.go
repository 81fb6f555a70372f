package mtcmos_test

import (
	"fmt"

	"nanometer/internal/device"
	"nanometer/internal/mtcmos"
)

// Size an MTCMOS footer for a 5 % active-mode delay budget and check what
// standby gating buys.
func ExampleBlock_SizeFooterFor() {
	blk, err := mtcmos.NewBlockIn(device.BaseLab(), 35, 1e-3, 0.08, 0.05)
	if err != nil {
		panic(err)
	}
	frac, err := blk.SizeFooterFor(0.05)
	if err != nil {
		panic(err)
	}
	resized, err := mtcmos.NewBlockIn(device.BaseLab(), 35, blk.LogicWidthM, frac, blk.ActiveCurrentA)
	if err != nil {
		panic(err)
	}
	fmt.Printf("footer under 10%% of logic width: %v; standby leakage nearly eliminated: %v\n",
		frac < 0.10, resized.StandbySavings() > 0.95)
	// Output:
	// footer under 10% of logic width: true; standby leakage nearly eliminated: true
}
