// Package itrs carries the ITRS-2000-update roadmap parameters the paper
// drives its models with, plus the published-device dataset of Table 1.
//
// The original roadmap (http://public.itrs.net, 2000 update) is no longer
// hosted; the values here are transcribed from the numbers the paper itself
// quotes wherever it quotes them (Vdd, Tox ranges, Ion/Ioff targets, junction
// temperatures, θja, bump pitch and counts, standby-current allowance) and
// filled with contemporaneous ITRS-1999/2000 values elsewhere (die area,
// clock rate, top-metal geometry). DESIGN.md §2 records this substitution.
package itrs

import "math"

// Node describes one technology node of the roadmap. Geometric quantities
// are in SI units (meters); currents per width in A/m (numerically equal to
// µA/µm); temperatures in °C where suffixed C.
type Node struct {
	// DrawnNM is the node name: drawn feature size in nanometers.
	DrawnNM int
	// Year is the ITRS production year for the node.
	Year int

	// Vdd is the nominal supply voltage in volts. VddAlt, when non-zero, is
	// the alternative supply the paper analyzes (0.7 V at the 50 nm node,
	// where it argues 0.6 V is unrealistic).
	Vdd    float64
	VddAlt float64

	// ToxPhysicalM is the physical gate-oxide thickness in meters (midpoint
	// of the ITRS range the paper quotes in Table 1).
	ToxPhysicalM float64
	// LeffM is the effective (final, as-etched) channel length in meters.
	LeffM float64
	// RsOhmM is the parasitic source resistance normalized to width (Ω·m);
	// the paper sets this "according to [1]" (the ITRS).
	RsOhmM float64

	// IonTargetAPerM is the ITRS NMOS saturation drive-current target
	// (750 µA/µm throughout the roadmap) in A/m.
	IonTargetAPerM float64
	// IoffITRSAPerM is the ITRS off-current projection in A/m (Table 2,
	// "ITRS Ioff projections" row).
	IoffITRSAPerM float64

	// JunctionTempC is the maximum junction temperature the roadmap allows.
	JunctionTempC float64
	// AmbientTempC is the assumed ambient (outside-package) temperature.
	AmbientTempC float64
	// ThetaJA is the required junction-to-ambient thermal resistance, °C/W.
	ThetaJA float64

	// MaxPowerW is the maximum MPU power dissipation (heat-sunk, high-
	// performance desktop class).
	MaxPowerW float64
	// DieAreaM2 is the MPU die area in m².
	DieAreaM2 float64
	// ClockHz is the across-chip (global) clock frequency target.
	ClockHz float64
	// LocalClockHz is the peak local (datapath) clock frequency target.
	LocalClockHz float64

	// TotalPads is the ITRS total pad/bump count projection for the node;
	// PowerBumpFraction of them carry Vdd or GND (split evenly).
	TotalPads         int
	PowerBumpFraction float64
	// BumpPitchMinM is the minimum attainable area-array bump pitch.
	BumpPitchMinM float64
	// BumpMaxCurrentA is the ITRS per-bump sustainable current projection.
	BumpMaxCurrentA float64

	// Top-level (global) metal geometry.
	TopMetalMinWidthM  float64
	TopMetalThicknessM float64
	// WirePitchGlobalM is the minimum global-tier wire pitch.
	WirePitchGlobalM float64
	// WirePitchLocalM is the minimum local-tier wire pitch.
	WirePitchLocalM float64

	// LogicTransistorsM is the logic transistor count in millions,
	// used by the repeater-census and power-extrapolation models.
	LogicTransistorsM float64
}

// roadmap returns the six-node roadmap the paper spans, ordered from the
// 180 nm node down to 35 nm. The returned slice is freshly allocated; Base
// is its only reader.
func roadmap() []Node {
	return []Node{
		{
			DrawnNM: 180, Year: 1999,
			Vdd: 1.8, ToxPhysicalM: 3.0e-9, LeffM: 100e-9, RsOhmM: 190e-6,
			IonTargetAPerM: 750, IoffITRSAPerM: 7e-3,
			JunctionTempC: 100, AmbientTempC: 45, ThetaJA: 0.80,
			MaxPowerW: 90, DieAreaM2: 3.00e-4, ClockHz: 1.2e9, LocalClockHz: 1.25e9,
			TotalPads: 1900, PowerBumpFraction: 0.68, BumpPitchMinM: 160e-6, BumpMaxCurrentA: 0.18,
			TopMetalMinWidthM: 0.50e-6, TopMetalThicknessM: 1.00e-6,
			WirePitchGlobalM: 1.00e-6, WirePitchLocalM: 0.46e-6,
			LogicTransistorsM: 24,
		},
		{
			DrawnNM: 130, Year: 2002,
			Vdd: 1.5, ToxPhysicalM: 1.9e-9, LeffM: 70e-9, RsOhmM: 180e-6,
			IonTargetAPerM: 750, IoffITRSAPerM: 10e-3,
			JunctionTempC: 85, AmbientTempC: 45, ThetaJA: 0.50,
			MaxPowerW: 130, DieAreaM2: 3.10e-4, ClockHz: 2.1e9, LocalClockHz: 2.3e9,
			TotalPads: 2300, PowerBumpFraction: 0.68, BumpPitchMinM: 140e-6, BumpMaxCurrentA: 0.17,
			TopMetalMinWidthM: 0.40e-6, TopMetalThicknessM: 0.85e-6,
			WirePitchGlobalM: 0.80e-6, WirePitchLocalM: 0.34e-6,
			LogicTransistorsM: 48,
		},
		{
			DrawnNM: 100, Year: 2005,
			Vdd: 1.2, ToxPhysicalM: 1.35e-9, LeffM: 50e-9, RsOhmM: 170e-6,
			IonTargetAPerM: 750, IoffITRSAPerM: 16e-3,
			JunctionTempC: 85, AmbientTempC: 45, ThetaJA: 0.35,
			MaxPowerW: 160, DieAreaM2: 3.20e-4, ClockHz: 3.5e9, LocalClockHz: 4.0e9,
			TotalPads: 2700, PowerBumpFraction: 0.68, BumpPitchMinM: 120e-6, BumpMaxCurrentA: 0.16,
			TopMetalMinWidthM: 0.32e-6, TopMetalThicknessM: 0.70e-6,
			WirePitchGlobalM: 0.60e-6, WirePitchLocalM: 0.24e-6,
			LogicTransistorsM: 95,
		},
		{
			DrawnNM: 70, Year: 2008,
			Vdd: 0.9, ToxPhysicalM: 1.0e-9, LeffM: 36e-9, RsOhmM: 160e-6,
			IonTargetAPerM: 750, IoffITRSAPerM: 40e-3,
			JunctionTempC: 85, AmbientTempC: 45, ThetaJA: 0.30,
			MaxPowerW: 170, DieAreaM2: 3.20e-4, ClockHz: 6.0e9, LocalClockHz: 7.0e9,
			TotalPads: 3200, PowerBumpFraction: 0.68, BumpPitchMinM: 100e-6, BumpMaxCurrentA: 0.15,
			TopMetalMinWidthM: 0.25e-6, TopMetalThicknessM: 0.55e-6,
			WirePitchGlobalM: 0.45e-6, WirePitchLocalM: 0.17e-6,
			LogicTransistorsM: 190,
		},
		{
			DrawnNM: 50, Year: 2011,
			Vdd: 0.6, VddAlt: 0.7, ToxPhysicalM: 0.7e-9, LeffM: 25e-9, RsOhmM: 150e-6,
			IonTargetAPerM: 750, IoffITRSAPerM: 80e-3,
			JunctionTempC: 85, AmbientTempC: 45, ThetaJA: 0.25,
			MaxPowerW: 174, DieAreaM2: 3.30e-4, ClockHz: 10.0e9, LocalClockHz: 12.0e9,
			TotalPads: 3900, PowerBumpFraction: 0.68, BumpPitchMinM: 90e-6, BumpMaxCurrentA: 0.14,
			TopMetalMinWidthM: 0.12e-6, TopMetalThicknessM: 0.24e-6,
			WirePitchGlobalM: 0.32e-6, WirePitchLocalM: 0.12e-6,
			LogicTransistorsM: 380,
		},
		{
			DrawnNM: 35, Year: 2014,
			Vdd: 0.6, ToxPhysicalM: 0.6e-9, LeffM: 18e-9, RsOhmM: 140e-6,
			IonTargetAPerM: 750, IoffITRSAPerM: 160e-3,
			JunctionTempC: 85, AmbientTempC: 45, ThetaJA: 0.20,
			MaxPowerW: 183, DieAreaM2: 3.80e-4, ClockHz: 13.5e9, LocalClockHz: 16.0e9,
			TotalPads: 4416, PowerBumpFraction: 0.68, BumpPitchMinM: 80e-6, BumpMaxCurrentA: 0.13,
			TopMetalMinWidthM: 0.10e-6, TopMetalThicknessM: 0.20e-6,
			WirePitchGlobalM: 0.24e-6, WirePitchLocalM: 0.08e-6,
			LogicTransistorsM: 770,
		},
	}
}

// PowerDensityWPerM2 returns the uniform-assumption power density of the
// node's MPU (max power over die area).
func (n Node) PowerDensityWPerM2() float64 { return n.MaxPowerW / n.DieAreaM2 }

// SupplyCurrentA returns the worst-case supply current P/Vdd.
func (n Node) SupplyCurrentA() float64 { return n.MaxPowerW / n.Vdd }

// PowerBumps returns the number of bumps carrying Vdd or GND.
func (n Node) PowerBumps() int {
	return int(float64(n.TotalPads) * n.PowerBumpFraction)
}

// VddBumps returns the number of Vdd bumps (half the power bumps).
func (n Node) VddBumps() int { return n.PowerBumps() / 2 }

// EffectiveBumpPitchM returns the power-bump pitch implied by the ITRS pad
// counts: the pitch of a uniform array of PowerBumps() bumps over the die.
// The paper contrasts this (≈356 µm at 35 nm) with the minimum attainable
// pitch (80 µm).
func (n Node) EffectiveBumpPitchM() float64 {
	p := n.PowerBumps()
	if p <= 0 {
		return 0
	}
	return sqrt(n.DieAreaM2 / float64(p))
}

// TopMetalSheetOhms returns the sheet resistance (Ω/square) of the top-level
// metal, assuming copper.
func (n Node) TopMetalSheetOhms() float64 {
	return copperResistivity / n.TopMetalThicknessM
}

// StandbyCurrentAllowanceA returns the standby current the ITRS static-power
// constraint (Pstatic ≤ 10 % of max power) permits: 0.1·P/Vdd. The paper
// notes this reaches 30 A at 35 nm.
func (n Node) StandbyCurrentAllowanceA() float64 {
	return 0.1 * n.MaxPowerW / n.Vdd
}

const copperResistivity = 2.2e-8 // Ω·m; see units.CopperResistivity

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
