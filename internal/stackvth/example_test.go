package stackvth_test

import (
	"fmt"

	"nanometer/internal/device"
	"nanometer/internal/stackvth"
)

// The §3.3 intra-cell idea: mixing one high-Vth transistor into a 2-high
// stack buys a large leakage cut for a small delay cost.
func ExampleExploreIn() {
	d := device.BaseLab().MustForNode(70)
	as, err := stackvth.ExploreIn(device.BaseLab(), 70, 2, 4*d.LeffM, d.Vth0, d.Vth0+0.1, 5e-15)
	if err != nil {
		panic(err)
	}
	best, err := stackvth.BestUnderPenalty(as, 0.10)
	if err != nil {
		panic(err)
	}
	fmt.Printf("high-Vth devices: %d; substantial saving: %v; penalty under 10%%: %v\n",
		best.HighCount(), best.LeakageSaving > 0.4, best.DelayPenalty <= 0.10)
	// Output:
	// high-Vth devices: 1; substantial saving: true; penalty under 10%: true
}

// Input-vector control: park an idle stack in its all-off state and the
// stack effect does the work of a sleep transistor.
func ExampleStack_MinLeakageVector() {
	d := device.BaseLab().MustForNode(70)
	st, err := stackvth.NewStackIn(device.BaseLab(), 70, 2, 4*d.LeffM, []float64{d.Vth0, d.Vth0})
	if err != nil {
		panic(err)
	}
	vec, best, err := st.MinLeakageVector()
	if err != nil {
		panic(err)
	}
	avg, err := st.AverageLeakage()
	if err != nil {
		panic(err)
	}
	fmt.Printf("park at %v; beats the average state: %v\n", vec, best < avg/2)
	// Output:
	// park at [false false]; beats the average state: true
}
