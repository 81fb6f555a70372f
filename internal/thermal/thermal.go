// Package thermal implements the paper's §2.1 packaging and dynamic-thermal-
// management (DTM) stack: the junction-to-ambient thermal-resistance model
// (its Eq. 1), a cooling-solution cost model with the 65→75 W heat-pipe cost
// step Intel reported, a discrete-time RC thermal plant, on-die temperature
// sensing, and the throttling / voltage-scaling controllers whose benefit the
// paper quantifies (designing the package for the ~75 % effective worst case
// instead of the theoretical worst case allows a 33 % higher θja).
package thermal

import (
	"fmt"
	"math"
)

// Package describes a packaging/cooling solution by its junction-to-ambient
// thermal resistance.
type Package struct {
	// ThetaJA is the junction-to-ambient thermal resistance, °C/W.
	ThetaJA float64
	// AmbientC is the ambient (outside package) temperature, °C.
	AmbientC float64
}

// JunctionTempC returns the steady-state junction temperature (Eq. 1
// rearranged): Tchip = Tambient + θja·Pchip.
func (p Package) JunctionTempC(powerW float64) float64 {
	return p.AmbientC + p.ThetaJA*powerW
}

// MaxPowerW returns the maximum sustained power that keeps the junction at
// or below tMaxC: Pchip = (Tchip − Tambient)/θja (Eq. 1).
func (p Package) MaxPowerW(tMaxC float64) float64 {
	if p.ThetaJA <= 0 {
		return math.Inf(1)
	}
	return (tMaxC - p.AmbientC) / p.ThetaJA
}

// RequiredThetaJA returns the θja needed to hold the junction at tMaxC while
// dissipating powerW.
func RequiredThetaJA(powerW, tMaxC, ambientC float64) (float64, error) {
	if powerW <= 0 {
		return 0, fmt.Errorf("thermal: non-positive power %g", powerW)
	}
	if tMaxC <= ambientC {
		return 0, fmt.Errorf("thermal: junction limit %g °C at or below ambient %g °C", tMaxC, ambientC)
	}
	return (tMaxC - ambientC) / powerW, nil
}

// Cooling-cost model ----------------------------------------------------------

// CoolingClass identifies a cooling-solution tier.
type CoolingClass int

const (
	PassiveHeatsink CoolingClass = iota
	ForcedAir
	HeatPipe
	Refrigeration
)

func (c CoolingClass) String() string {
	switch c {
	case PassiveHeatsink:
		return "passive heatsink"
	case ForcedAir:
		return "forced air"
	case HeatPipe:
		return "heat pipe"
	case Refrigeration:
		return "vapor-compression refrigeration"
	}
	return fmt.Sprintf("CoolingClass(%d)", int(c))
}

// coolingTier maps a required θja to the cheapest class able to deliver it,
// with a base cost and a per-watt cost. The tiers encode the paper's cost
// observations: forced air tops out near θja ≈ 0.8 °C/W so the 65→75 W
// step at the 1999 junction/ambient point forces heat pipes and roughly
// triples cost, and refrigeration runs ≈$1 per watt cooled.
type coolingTier struct {
	class      CoolingClass
	minThetaJA float64 // the tier can achieve θja ≥ this
	baseCost   float64
	perWatt    float64
}

var coolingTiers = []coolingTier{
	{PassiveHeatsink, 2.0, 2, 0.00},
	{ForcedAir, 0.80, 8, 0.05},
	{HeatPipe, 0.28, 30, 0.05},
	{Refrigeration, 0.02, 150, 1.00},
}

// CoolingSolution is a selected cooling tier with its cost for a design.
type CoolingSolution struct {
	Class   CoolingClass
	ThetaJA float64
	CostUSD float64
}

// SelectCooling picks the cheapest cooling class able to hold the junction
// at tMaxC for the given power and ambient, and returns its cost.
func SelectCooling(powerW, tMaxC, ambientC float64) (CoolingSolution, error) {
	need, err := RequiredThetaJA(powerW, tMaxC, ambientC)
	if err != nil {
		return CoolingSolution{}, err
	}
	for _, tier := range coolingTiers {
		if need >= tier.minThetaJA {
			return CoolingSolution{
				Class:   tier.class,
				ThetaJA: need,
				CostUSD: tier.baseCost + tier.perWatt*powerW,
			}, nil
		}
	}
	return CoolingSolution{}, fmt.Errorf("thermal: no cooling class achieves θja=%.3f °C/W", need)
}

// RC thermal plant ------------------------------------------------------------

// Plant is a first-order lumped thermal model of die + package: thermal
// capacitance CthJPerC charging through resistance θja to ambient.
type Plant struct {
	Package
	// CthJPerC is the lumped thermal capacitance (J/°C). Die + spreader of
	// a desktop MPU is of order 10–100 J/°C.
	CthJPerC float64
	// TempC is the current junction temperature.
	TempC float64

	// decay caches exp(−dt/τ) for the (dt, τ) pair of the last step, so a
	// fixed-step simulation pays for one math.Exp per run, not per step.
	decayDt, decayTau, decay float64
}

// NewPlant returns a plant initialized to ambient.
func NewPlant(pkg Package, cth float64) *Plant {
	return &Plant{Package: pkg, CthJPerC: cth, TempC: pkg.AmbientC}
}

// Step advances the plant by dt seconds while dissipating powerW, using the
// exact exponential solution of the first-order ODE
// Cth·dT/dt = P − (T − Tamb)/θja. τ is re-derived from the exported fields
// on every call, so changing θja, Cth or dt between steps is exact.
func (p *Plant) Step(powerW, dt float64) {
	tInf := p.AmbientC + p.ThetaJA*powerW
	tau := p.ThetaJA * p.CthJPerC
	if tau <= 0 {
		p.TempC = tInf
		return
	}
	// The zero Plant never hits the cache: τ > 0 here and decayTau starts 0.
	if dt != p.decayDt || tau != p.decayTau {
		p.decayDt, p.decayTau, p.decay = dt, tau, math.Exp(-dt/tau)
	}
	p.TempC = tInf + (p.TempC-tInf)*p.decay
}

// TimeConstant returns the plant's thermal time constant θja·Cth (s).
func (p *Plant) TimeConstant() float64 { return p.ThetaJA * p.CthJPerC }

// Sensor models the Pentium-4-style on-die thermal monitor: a diode-based
// temperature sensor with an offset and a trip comparator plus hysteresis.
type Sensor struct {
	// TripC is the comparator threshold.
	TripC float64
	// HysteresisC is released when the temperature falls TripC−HysteresisC.
	HysteresisC float64
	// OffsetC is the sensor's systematic error (reads high when positive).
	OffsetC float64

	tripped bool
}

// Read returns whether the sensor (given the true junction temperature)
// asserts the over-temperature signal.
func (s *Sensor) Read(tempC float64) bool {
	reading := tempC + s.OffsetC
	if s.tripped {
		if reading < s.TripC-s.HysteresisC {
			s.tripped = false
		}
	} else if reading >= s.TripC {
		s.tripped = true
	}
	return s.tripped
}

// Reset clears the sensor latch.
func (s *Sensor) Reset() { s.tripped = false }
