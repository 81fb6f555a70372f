package signaling_test

import (
	"fmt"

	"nanometer/internal/itrs"
	"nanometer/internal/signaling"
	"nanometer/internal/wire"
)

// The Alpha-21264-style comparison of §2.2: a differential 10 %-swing link
// against full-swing repeated CMOS on the same global route.
func ExampleCompare() {
	line, err := wire.ForNodeIn(itrs.Base(), 50, wire.Global)
	if err != nil {
		panic(err)
	}
	cmp, err := signaling.Compare(line, 6e-3, 0.6, 0.10, signaling.DifferentialLowSwing)
	if err != nil {
		panic(err)
	}
	fmt.Printf("energy ×%.2f, tracks ×%.2f, noise closes: %v\n",
		cmp.EnergyRatio, cmp.TrackRatio, cmp.AltSNR > 1)
	// Output:
	// energy ×0.23, tracks ×1.25, noise closes: true
}

// The tolerable-swing study the paper calls for: the minimum swing that
// closes SNR 2 on a shielded differential route undercuts the Alpha's 10 %.
func ExampleStudySwing() {
	line, err := wire.ForNodeIn(itrs.Base(), 50, wire.Global)
	if err != nil {
		panic(err)
	}
	st, err := signaling.StudySwing(line, 6e-3, 0.6, signaling.DifferentialLowSwing, true, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("min swing %.1f%% of Vdd; 10%% swing closes: %v\n",
		st.MinSwingFrac*100, st.AlphaSwingOK)
	// Output:
	// min swing 6.8% of Vdd; 10% swing closes: true
}
