package device_test

import (
	"fmt"

	"nanometer/internal/device"
	"nanometer/internal/units"
)

// Solve the threshold that delivers the ITRS drive target at the 70 nm node
// and look at the leakage it implies — one column of the paper's Table 2.
func Example() {
	d := device.BaseLab().MustForNode(70)
	vth, err := d.SolveVthForIon(750, 0.9, units.RoomTemperature)
	if err != nil {
		panic(err)
	}
	ioff := d.WithVth(vth).IoffPerWidth(0.9, units.RoomTemperature)
	fmt.Printf("Vth = %.2f V, Ioff = %.0f nA/µm\n", vth, units.NAPerUMFromAmpsPerMeter(ioff))
	// Output:
	// Vth = 0.14 V, Ioff = 225 nA/µm
}

// The dual-Vth trade of Figure 2: 100 mV of threshold costs ≈15× leakage
// and buys drive current.
func ExampleDevice_WithVth() {
	d := device.BaseLab().MustForNode(70)
	low := d.WithVth(d.Vth0 - 0.1)
	ionGain := low.IonPerWidth(0.9, units.RoomTemperature)/d.IonPerWidth(0.9, units.RoomTemperature) - 1
	ioffX := low.IoffPerWidth(0.9, units.RoomTemperature) / d.IoffPerWidth(0.9, units.RoomTemperature)
	fmt.Printf("Ion +%.0f%%, Ioff ×%.0f\n", ionGain*100, ioffX)
	// Output:
	// Ion +16%, Ioff ×15
}

// The metal-gate variant of Table 2: removing gate depletion thins the
// electrical oxide and allows a higher threshold at the same drive.
func ExampleDevice_MetalGate() {
	d := device.BaseLab().MustForNode(35)
	mg := d.MetalGate()
	fmt.Printf("electrical oxide: %.1f nm → %.1f nm\n", d.ToxElectricalM()*1e9, mg.ToxElectricalM()*1e9)
	// Output:
	// electrical oxide: 1.3 nm → 1.0 nm
}
