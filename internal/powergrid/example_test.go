package powergrid_test

import (
	"fmt"

	"nanometer/internal/itrs"
	"nanometer/internal/powergrid"
)

// Figure 5's 35 nm anchor: at the minimum attainable bump pitch the rails
// need ≈16× the minimum top-metal width and stay under 4 % of routing.
func ExampleGridSpec_SizeRails() {
	node := itrs.Base().MustNode(35)
	spec := powergrid.DefaultSpec(node, node.BumpPitchMinM)
	sz, err := spec.SizeRails()
	if err != nil {
		panic(err)
	}
	fmt.Printf("rail width %.0f× Wmin, rails %.1f%% of routing\n",
		sz.WidthOverMin, sz.RailRoutingFraction*100)
	// Output:
	// rail width 15× Wmin, rails 3.8% of routing
}

// The §4 bump-current check: 1500 Vdd bumps cannot carry the 35 nm chip's
// ~300 A draw at the ITRS per-bump capability.
func ExampleCheckBumpCurrent() {
	chk := powergrid.CheckBumpCurrent(itrs.Base().MustNode(35))
	fmt.Printf("compatible: %v (%.2f A/bump vs %.2f A capability)\n",
		chk.Compatible, chk.PerBumpA, chk.CapabilityA)
	// Output:
	// compatible: false (0.20 A/bump vs 0.13 A capability)
}

// Wakeup staging: how slowly must a 38 A sleep-gated block re-awaken to
// keep the supply droop within 10 % of Vdd under the ITRS bump plan?
func ExampleTransientSpec_MinSafeRampS() {
	spec := powergrid.DefaultTransientSpec(itrs.Base().MustNode(35))
	ramp, err := spec.MinSafeRampS(38, 0.10)
	if err != nil {
		panic(err)
	}
	fmt.Printf("staging required: %v\n", ramp > 0)
	// Output:
	// staging required: true
}
