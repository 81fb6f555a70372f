// Package mtcmos models Multi-Threshold CMOS sleep-transistor power gating
// (§3.2.1): a high-Vth footer switch in series with fast low-Vth logic that
// virtually eliminates standby leakage, at the cost of area, an active-mode
// delay penalty, and — the §4 concern — a large wakeup current transient
// when the virtual rail recharges.
package mtcmos

import (
	"fmt"
	"math"

	"nanometer/internal/device"
	"nanometer/internal/units"
)

// Block is a power-gated logic block.
type Block struct {
	// LowVth is the logic device; HighVth the sleep transistor device.
	LowVth, HighVth *device.Device
	// LogicWidthM is the total switching NMOS width of the gated logic;
	// SleepWidthM the footer width.
	LogicWidthM, SleepWidthM float64
	// Vdd and TemperatureK set the operating point.
	Vdd, TemperatureK float64
	// ActiveCurrentA is the block's peak switching (virtual-rail) current.
	ActiveCurrentA float64
	// VirtualRailCapF is the capacitance of the virtual-ground network that
	// discharges in sleep and recharges at wakeup.
	VirtualRailCapF float64
}

// NewBlockIn builds a power-gated block for a node. sleepFraction sizes the
// footer as a fraction of the logic width (typical 5–15 %).
func NewBlockIn(lab *device.Lab, nodeNM int, logicWidthM, sleepFraction, activeCurrentA float64) (*Block, error) {
	if sleepFraction <= 0 || sleepFraction > 1 {
		return nil, fmt.Errorf("mtcmos: sleep fraction %g outside (0,1]", sleepFraction)
	}
	low, err := lab.ForNode(nodeNM)
	if err != nil {
		return nil, err
	}
	high := low.WithVth(low.Vth0 + 0.15) // sleep devices sit well above the logic Vth
	return &Block{
		LowVth:         low,
		HighVth:        high,
		LogicWidthM:    logicWidthM,
		SleepWidthM:    logicWidthM * sleepFraction,
		Vdd:            low.VddRef,
		TemperatureK:   units.CelsiusToKelvin(85),
		ActiveCurrentA: activeCurrentA,
		// ~1 fF of virtual-rail capacitance per µm of logic width.
		VirtualRailCapF: logicWidthM * 1e-15 / 1e-6,
	}, nil
}

// ActiveLeakageW is the (ungated) leakage of the logic in active mode — the
// sleep transistor is on and does not help.
func (b *Block) ActiveLeakageW() float64 {
	return b.LowVth.IoffPerWidth(b.Vdd, b.TemperatureK) * b.LogicWidthM * b.Vdd
}

// StandbyLeakageW is the gated leakage: the series high-Vth footer limits
// the path, so standby leakage is the sleep device's off current.
func (b *Block) StandbyLeakageW() float64 {
	return b.HighVth.IoffPerWidth(b.Vdd, b.TemperatureK) * b.SleepWidthM * b.Vdd
}

// StandbySavings is 1 − standby/active leakage.
func (b *Block) StandbySavings() float64 {
	a := b.ActiveLeakageW()
	if a == 0 {
		return 0
	}
	return 1 - b.StandbyLeakageW()/a
}

// DelayPenalty returns the relative active-mode slowdown from the footer's
// series resistance: the virtual-ground bounce ΔV = I·Ron reduces the
// effective supply, and delay ∝ Vdd/(Vdd − ΔV) to first order.
func (b *Block) DelayPenalty() float64 {
	ron := b.SleepOnResistance()
	dv := b.ActiveCurrentA * ron
	if dv >= 0.25*b.Vdd {
		return math.Inf(1) // footer hopelessly undersized
	}
	return b.Vdd/(b.Vdd-dv) - 1
}

// SleepOnResistance is the footer's deep-linear-region on-resistance. At the
// millivolt-scale Vds of an active-mode virtual rail, velocity saturation is
// irrelevant and the triode conductance applies:
//
//	R = Leff / (W · µeff · Coxe · (Vgs − Vth))
func (b *Block) SleepOnResistance() float64 {
	d := b.HighVth
	vov := b.Vdd - d.VthAt(0.05, b.TemperatureK) // Vds ≈ tens of mV in triode
	if vov <= 0 || b.SleepWidthM <= 0 {
		return math.Inf(1)
	}
	return d.LeffM / (b.SleepWidthM * d.MobilityM2PerVs * d.CoxElectrical() * vov)
}

// SizeFooterFor returns the sleep fraction needed to keep the delay penalty
// at or below target (e.g. 0.05 for 5 %).
func (b *Block) SizeFooterFor(target float64) (float64, error) {
	if target <= 0 {
		return 0, fmt.Errorf("mtcmos: non-positive delay target %g", target)
	}
	// ΔV_allowed = Vdd·(1 − 1/(1+target)); invert the triode resistance.
	dv := b.Vdd * (1 - 1/(1+target))
	d := b.HighVth
	vov := b.Vdd - d.VthAt(0.05, b.TemperatureK)
	if vov <= 0 {
		return 0, fmt.Errorf("mtcmos: sleep device does not turn on at Vdd=%g", b.Vdd)
	}
	ronNeeded := dv / b.ActiveCurrentA
	widthNeeded := d.LeffM / (ronNeeded * d.MobilityM2PerVs * d.CoxElectrical() * vov)
	return widthNeeded / b.LogicWidthM, nil
}

// WakeupEvent describes the current transient of re-awakening the block.
type WakeupEvent struct {
	// PeakCurrentA is the inrush peak; RampS the effective ramp time;
	// ChargeC the total recharge charge.
	PeakCurrentA, RampS, ChargeC float64
}

// Wakeup returns the inrush transient: the virtual rail (discharged to
// ~Vdd in sleep) recharges through the footer.
func (b *Block) Wakeup() WakeupEvent {
	ron := b.SleepOnResistance()
	peak := b.Vdd / ron
	tau := ron * b.VirtualRailCapF
	return WakeupEvent{
		PeakCurrentA: peak,
		RampS:        2 * tau,
		ChargeC:      b.VirtualRailCapF * b.Vdd,
	}
}

// AreaOverhead is the relative device-area cost of the footer.
func (b *Block) AreaOverhead() float64 { return b.SleepWidthM / b.LogicWidthM }
