// Package device implements the compact MOSFET model the paper builds its
// analysis on: the velocity-saturated drain-current expression with parasitic
// source resistance (its Eqs. 2–3, after Chen & Hu), the exponential
// subthreshold off-current (Eq. 4), electrical-oxide-thickness effects
// (finite inversion-layer thickness plus gate depletion), DIBL, and
// temperature dependence. All width-normalized currents are in A/m
// (numerically equal to µA/µm).
package device

import (
	"fmt"
	"math"

	"nanometer/internal/mathx"
	"nanometer/internal/units"
)

// Polarity identifies the channel type of a device.
type Polarity int

const (
	NMOS Polarity = iota
	PMOS
)

func (p Polarity) String() string {
	if p == PMOS {
		return "PMOS"
	}
	return "NMOS"
}

// Default structural parameters shared across nodes.
const (
	// DefaultInversionThicknessM is the apparent oxide thickening from the
	// finite inversion-layer (quantization) charge centroid.
	DefaultInversionThicknessM = 0.4e-9
	// DefaultGateDepletionM is the apparent thickening from poly-gate
	// depletion; a metal gate eliminates it.
	DefaultGateDepletionM = 0.3e-9
	// DefaultSubthresholdSwing is the room-temperature subthreshold swing
	// the paper assumes throughout scaling (85 mV/decade, matching the
	// ITRS convention).
	DefaultSubthresholdSwing = 0.085
	// DefaultIoffPrefactorAPerM is the Eq. 4 prefactor: Ioff =
	// 10 µA/µm × 10^(−Vth/S). 10 µA/µm = 10 A/m.
	DefaultIoffPrefactorAPerM = 10.0
	// DefaultVsatMPerS is the carrier saturation velocity.
	DefaultVsatMPerS = 8.0e4
)

// Device is a width-normalized MOSFET. The zero value is not usable; build
// devices with ForNode or populate all fields.
type Device struct {
	Name     string
	Polarity Polarity

	// LeffM is the effective (as-etched) channel length.
	LeffM float64
	// ToxPhysicalM is the physical oxide thickness.
	ToxPhysicalM float64
	// InversionThicknessM and GateDepletionM are the apparent oxide
	// thickening terms; their sum is the paper's ≈0.7 nm electrical-vs-
	// physical gap. Setting GateDepletionM to zero models a metal gate.
	InversionThicknessM float64
	GateDepletionM      float64

	// MobilityM2PerVs is the effective channel mobility µeff. Per DESIGN.md
	// §2 this is the calibrated stand-in for the paper's SPICE decks.
	MobilityM2PerVs float64
	// VsatMPerS is the saturation velocity; Esat = 2·vsat/µeff.
	VsatMPerS float64
	// RsOhmM is the parasitic source resistance normalized to width (Ω·m).
	RsOhmM float64

	// Vth0 is the saturation threshold voltage at Vds = VddRef, 300 K.
	Vth0 float64
	// VddRef is the drain bias at which Vth0 is quoted (the node's nominal
	// supply). DIBL shifts the threshold away from this reference.
	VddRef float64
	// DIBL is the drain-induced barrier lowering coefficient (V threshold
	// reduction per V of drain bias above VddRef).
	DIBL float64
	// VthTempCoeffVPerK lowers the threshold as temperature rises.
	VthTempCoeffVPerK float64

	// SubthresholdSwing300K is the subthreshold swing at 300 K (V/decade);
	// it scales linearly with absolute temperature.
	SubthresholdSwing300K float64
	// IoffPrefactorAPerM is the Eq. 4 prefactor (A/m).
	IoffPrefactorAPerM float64
}

// Validate reports the first structurally invalid field, or nil.
func (d *Device) Validate() error {
	switch {
	case d.LeffM <= 0:
		return fmt.Errorf("device %s: Leff %g must be positive", d.Name, d.LeffM)
	case d.ToxPhysicalM <= 0:
		return fmt.Errorf("device %s: Tox %g must be positive", d.Name, d.ToxPhysicalM)
	case d.MobilityM2PerVs <= 0:
		return fmt.Errorf("device %s: mobility %g must be positive", d.Name, d.MobilityM2PerVs)
	case d.VsatMPerS <= 0:
		return fmt.Errorf("device %s: vsat %g must be positive", d.Name, d.VsatMPerS)
	case d.RsOhmM < 0:
		return fmt.Errorf("device %s: Rs %g must be non-negative", d.Name, d.RsOhmM)
	case d.SubthresholdSwing300K <= 0:
		return fmt.Errorf("device %s: subthreshold swing %g must be positive", d.Name, d.SubthresholdSwing300K)
	case d.IoffPrefactorAPerM <= 0:
		return fmt.Errorf("device %s: Ioff prefactor %g must be positive", d.Name, d.IoffPrefactorAPerM)
	case d.VddRef <= 0:
		return fmt.Errorf("device %s: VddRef %g must be positive", d.Name, d.VddRef)
	}
	return nil
}

// ToxElectricalM returns the electrical oxide thickness: physical thickness
// plus inversion-layer and gate-depletion corrections (≈ +0.7 nm for a poly
// gate, ≈ +0.4 nm for a metal gate).
func (d *Device) ToxElectricalM() float64 {
	return d.ToxPhysicalM + d.InversionThicknessM + d.GateDepletionM
}

// CoxElectrical returns the electrical gate capacitance per area (F/m²).
func (d *Device) CoxElectrical() float64 {
	return units.OxideCapacitance(d.ToxElectricalM())
}

// CoxPhysical returns the physical-oxide gate capacitance per area (F/m²).
func (d *Device) CoxPhysical() float64 {
	return units.OxideCapacitance(d.ToxPhysicalM)
}

// EsatVPerM returns the lateral field at which carrier velocity saturates.
func (d *Device) EsatVPerM() float64 { return 2 * d.VsatMPerS / d.MobilityM2PerVs }

// EsatLeffV returns the velocity-saturation voltage Esat·Leff.
func (d *Device) EsatLeffV() float64 { return d.EsatVPerM() * d.LeffM }

// SubthresholdSwing returns the swing (V/decade) at temperature T (kelvin);
// it scales with absolute temperature.
func (d *Device) SubthresholdSwing(tKelvin float64) float64 {
	return d.SubthresholdSwing300K * tKelvin / units.RoomTemperature
}

// BodyFactorN returns the subthreshold ideality factor n = S/(ln10·kT/q).
// By construction it is temperature-independent when S scales with T.
func (d *Device) BodyFactorN() float64 {
	return d.SubthresholdSwing300K / (math.Ln10 * units.ThermalVoltage(units.RoomTemperature))
}

// VthAt returns the effective threshold at drain bias vds and temperature T,
// including DIBL relative to VddRef and the temperature coefficient.
func (d *Device) VthAt(vds, tKelvin float64) float64 {
	vth := d.Vth0
	vth -= d.DIBL * (vds - d.VddRef)
	vth -= d.VthTempCoeffVPerK * (tKelvin - units.RoomTemperature)
	return vth
}

// overdriveEff returns a smoothed gate overdrive that transitions from
// strong inversion (Vgs−Vth) through moderate inversion to a subthreshold
// floor, so that drive current stays finite and realistically steep when the
// supply approaches the threshold (the Vdd = 0.2 V regime of Figure 3).
func (d *Device) overdriveEff(vgs, vds, tKelvin float64) float64 {
	vth := d.VthAt(vds, tKelvin)
	n := d.BodyFactorN()
	phiT := units.ThermalVoltage(tKelvin)
	w := 2 * n * phiT
	x := (vgs - vth) / w
	if x > 40 {
		return vgs - vth
	}
	return w * math.Log1p(math.Exp(x))
}

// Idsat0PerWidth implements Eq. 3: the intrinsic (Rs = 0) saturation drain
// current per unit width (A/m) at gate bias vgs, drain bias vds, and
// temperature T.
func (d *Device) Idsat0PerWidth(vgs, vds, tKelvin float64) float64 {
	vov := d.overdriveEff(vgs, vds, tKelvin)
	if vov <= 0 {
		return 0
	}
	esatL := d.EsatLeffV()
	return d.MobilityM2PerVs * d.CoxElectrical() / (2 * d.LeffM) *
		vov * vov / (1 + vov/esatL)
}

// IonPerWidth implements Eq. 2: the extrinsic saturation drive current per
// width (A/m) at Vgs = Vds = vdd, including the first-order source-
// resistance degradation.
func (d *Device) IonPerWidth(vdd, tKelvin float64) float64 {
	i0 := d.Idsat0PerWidth(vdd, vdd, tKelvin)
	if i0 == 0 {
		return 0
	}
	vov := d.overdriveEff(vdd, vdd, tKelvin)
	esatL := d.EsatLeffV()
	corr := 1 + i0*d.RsOhmM*(2/vov-1/(vov+esatL))
	if corr < 1 {
		corr = 1
	}
	return i0 / corr
}

// IoffPerWidth implements Eq. 4 with DIBL and temperature: the subthreshold
// off current per width (A/m) at Vgs = 0, Vds = vdd.
func (d *Device) IoffPerWidth(vdd, tKelvin float64) float64 {
	s := d.SubthresholdSwing(tKelvin)
	vth := d.VthAt(vdd, tKelvin)
	return d.IoffPrefactorAPerM * math.Pow(10, -vth/s)
}

// IonOverIoff returns the drive-to-leakage ratio at the given bias point.
func (d *Device) IonOverIoff(vdd, tKelvin float64) float64 {
	ioff := d.IoffPerWidth(vdd, tKelvin)
	if ioff == 0 {
		return math.Inf(1)
	}
	return d.IonPerWidth(vdd, tKelvin) / ioff
}

// WithVth returns a copy of the device with Vth0 replaced.
func (d *Device) WithVth(vth float64) *Device {
	c := *d
	c.Vth0 = vth
	return &c
}

// MetalGate returns a copy of the device with the gate-depletion component
// of the electrical oxide removed (Table 2's "metal gate" analysis).
func (d *Device) MetalGate() *Device {
	c := *d
	c.GateDepletionM = 0
	return &c
}

// SolveVthForIon returns the threshold voltage at which the device delivers
// exactly target A/m of drive current at supply vdd and temperature T. This
// is how Table 2's "Vth required to meet Ion" row is produced.
func (d *Device) SolveVthForIon(target, vdd, tKelvin float64) (float64, error) {
	if target <= 0 {
		return 0, fmt.Errorf("device: non-positive Ion target %g", target)
	}
	c := *d // one copy per solve; each evaluation only sets its Vth0
	f := func(vth float64) float64 {
		c.Vth0 = vth
		return c.IonPerWidth(vdd, tKelvin) - target
	}
	lo, hi := -0.3, vdd // allow slightly negative thresholds (the 50 nm @0.6 V case is 0.04 V)
	flo, fhi := f(lo), f(hi)
	if flo < 0 {
		return 0, fmt.Errorf("device %s: cannot reach Ion %g A/m even at Vth=%g (max %g)",
			d.Name, target, lo, flo+target)
	}
	if fhi > 0 {
		// Even at Vth = Vdd the target is exceeded; extend upward.
		var err error
		lo, hi, err = mathx.FindBracket(f, lo, hi, 30)
		if err != nil {
			return 0, fmt.Errorf("device %s: no Vth bracket for Ion %g: %w", d.Name, target, err)
		}
	}
	return mathx.Brent(f, lo, hi, 1e-7)
}

// DelayMetric returns the CV/I gate-delay figure of merit (seconds) for a
// fan-out-of-fo inverter stage: fo gate loads switched through the device's
// drive current. It is used for normalized delay curves (Figure 3), where
// the constant prefactor cancels.
func (d *Device) DelayMetric(vdd, tKelvin float64, fo float64) float64 {
	ion := d.IonPerWidth(vdd, tKelvin)
	if ion <= 0 {
		return math.Inf(1)
	}
	cPerWidth := d.CoxElectrical() * d.LeffM // F/m of gate width
	return fo * cPerWidth * vdd / ion
}
