// Package units provides physical constants and unit-handling helpers used
// throughout the nanometer-design model stack.
//
// All model code in this repository works in SI base units (meters, volts,
// amperes, watts, seconds, kelvin, farads, ohms) unless a function name or
// parameter explicitly says otherwise. Device-level quantities that the
// literature quotes per unit width (µA/µm, nA/µm) are carried in A/m
// internally; this package supplies conversions to and from the familiar
// engineering forms so that boundary code (tables, reports, tests written
// against paper values) stays readable.
package units

import (
	"fmt"
	"math"
)

// Fundamental constants (CODATA values, truncated to model-relevant
// precision — these models carry at best a few percent accuracy).
const (
	// BoltzmannJPerK is the Boltzmann constant in joules per kelvin.
	BoltzmannJPerK = 1.380649e-23
	// ElectronCharge is the elementary charge in coulombs.
	ElectronCharge = 1.602176634e-19
	// VacuumPermittivity is ε0 in farads per meter.
	VacuumPermittivity = 8.8541878128e-12
	// SiO2RelativePermittivity is the relative dielectric constant of
	// thermally grown silicon dioxide.
	SiO2RelativePermittivity = 3.9
	// SiRelativePermittivity is the relative dielectric constant of bulk
	// silicon.
	SiRelativePermittivity = 11.7
	// CopperResistivity is the bulk resistivity of copper interconnect in
	// ohm-meters (slightly above ideal bulk to reflect barrier/liner loss,
	// per BACPAC-era assumptions).
	CopperResistivity = 2.2e-8
	// AluminumResistivity is the bulk resistivity of aluminum interconnect
	// in ohm-meters.
	AluminumResistivity = 3.3e-8
)

// Convenient scale factors. Multiply to convert from the named unit to SI;
// divide to convert back.
const (
	Nano     = 1e-9
	Micro    = 1e-6
	Milli    = 1e-3
	Kilo     = 1e3
	Mega     = 1e6
	Giga     = 1e9
	Angstrom = 1e-10

	// CelsiusOffset converts between °C and K.
	CelsiusOffset = 273.15
)

// RoomTemperature is the reference ambient used for "room temperature"
// leakage quotes (300 K ≈ 27 °C), matching the ITRS convention the paper
// adopts for its 85 mV/decade subthreshold swing.
const RoomTemperature = 300.0

// ThermalVoltage returns kT/q in volts at temperature T (kelvin).
func ThermalVoltage(tKelvin float64) float64 {
	return BoltzmannJPerK * tKelvin / ElectronCharge
}

// CelsiusToKelvin converts a temperature in °C to kelvin.
func CelsiusToKelvin(c float64) float64 { return c + CelsiusOffset }

// OxideCapacitance returns the parallel-plate gate capacitance per unit area
// (F/m²) for an SiO2 dielectric of the given thickness in meters.
func OxideCapacitance(thicknessM float64) float64 {
	if thicknessM <= 0 {
		panic(fmt.Sprintf("units: non-positive oxide thickness %g", thicknessM))
	}
	return SiO2RelativePermittivity * VacuumPermittivity / thicknessM
}

// NAPerUMFromAmpsPerMeter converts A/m to nA/µm, the per-micron-of-width
// unit the device literature quotes leakage in.
func NAPerUMFromAmpsPerMeter(aPerM float64) float64 { return aPerM * 1e3 }

// ApproxEqual reports whether a and b agree within relative tolerance rel
// (falling back to absolute tolerance abs near zero).
func ApproxEqual(a, b, rel, abs float64) bool {
	diff := math.Abs(a - b)
	if diff <= abs {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= rel*scale
}
