package itrs_test

import (
	"fmt"

	"nanometer/internal/itrs"
)

// The paper's §4 arithmetic: the 35 nm ITRS pad plan implies a 356 µm
// effective power-bump pitch against an attainable 80 µm, and its standby
// allowance reaches 30 A.
func ExampleNode() {
	n := itrs.Base().MustNode(35)
	fmt.Printf("effective pitch %.0f µm (attainable %.0f µm); standby allowance %.1f A\n",
		n.EffectiveBumpPitchM()*1e6, n.BumpPitchMinM*1e6, n.StandbyCurrentAllowanceA())
	// Output:
	// effective pitch 356 µm (attainable 80 µm); standby allowance 30.5 A
}
