package standby_test

import (
	"fmt"

	"nanometer/internal/device"
	"nanometer/internal/standby"
)

// The §3.2.1 scalability verdict: reverse body bias loses its lever in
// scaled devices while the sleep transistor holds.
func ExampleEvaluateIn() {
	body35, err := standby.EvaluateIn(device.BaseLab(), standby.ReverseBodyBias, 35, 1e-3)
	if err != nil {
		panic(err)
	}
	mtcmos35, err := standby.EvaluateIn(device.BaseLab(), standby.MTCMOSGating, 35, 1e-3)
	if err != nil {
		panic(err)
	}
	fmt.Printf("body bias scales: %v; MTCMOS scales: %v\n", body35.Scalable, mtcmos35.Scalable)
	// Output:
	// body bias scales: false; MTCMOS scales: true
}
