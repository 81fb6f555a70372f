package powergrid

import (
	"fmt"
	"math"

	"nanometer/internal/itrs"
)

// TransientSpec models the L·di/dt supply noise of a load-current step — the
// §4 concern that waking a sleep-gated block slams the distribution network.
// The die-side decoupling capacitance and the package inductance form an LC
// tank; a current step of ΔI ramped over t droops the rail by roughly
//
//	ΔV ≈ ΔI · min( √(L/C),  L/t )
//
// — the characteristic impedance bounds fast steps, the inductor voltage
// bounds slow ramps.
type TransientSpec struct {
	// Node supplies bump counts and Vdd.
	Node itrs.Node
	// BumpInductanceH is the effective package inductance per power bump
	// (bump + trace share), typically ~0.1–0.5 nH.
	BumpInductanceH float64
	// PowerBumps overrides the node's bump plan when non-zero (to compare
	// ITRS counts against the minimum-pitch plan).
	PowerBumps int
	// OnDieDecapF is the on-die decoupling capacitance.
	OnDieDecapF float64
}

// DefaultTransientSpec returns a conventional configuration: 0.25 nH per
// bump and on-die decap from thin-oxide fill on ~10 % of the die
// (≈50 nF/cm² class).
func DefaultTransientSpec(node itrs.Node) TransientSpec {
	return TransientSpec{
		Node:            node,
		BumpInductanceH: 0.25e-9,
		OnDieDecapF:     0.10 * node.DieAreaM2 * 50e-9 / 1e-4,
	}
}

// EffectiveInductance returns the parallel package inductance seen by the
// die through all power bumps.
func (t TransientSpec) EffectiveInductance() float64 {
	bumps := t.PowerBumps
	if bumps == 0 {
		bumps = t.Node.PowerBumps()
	}
	if bumps <= 0 {
		return math.Inf(1)
	}
	return t.BumpInductanceH / float64(bumps)
}

// CharacteristicImpedance returns √(L/C) of the package-decap tank.
func (t TransientSpec) CharacteristicImpedance() float64 {
	if t.OnDieDecapF <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(t.EffectiveInductance() / t.OnDieDecapF)
}

// TransientResult quantifies a current-step event.
type TransientResult struct {
	// DIDTAmpsPerS is the current ramp rate.
	DIDTAmpsPerS float64
	// InductiveNoiseV is the slow-ramp bound L·ΔI/t; ImpedanceNoiseV the
	// fast-step bound ΔI·√(L/C).
	InductiveNoiseV, ImpedanceNoiseV float64
	// NoiseV is the governing (smaller) droop; NoiseFraction over Vdd.
	NoiseV        float64
	NoiseFraction float64
	// OK reports whether the droop stays within 10 % of Vdd.
	OK bool
}

// Step evaluates a load step of deltaI amps ramped over rampS seconds.
func (t TransientSpec) Step(deltaI, rampS float64) (TransientResult, error) {
	if deltaI <= 0 || rampS <= 0 {
		return TransientResult{}, fmt.Errorf("powergrid: non-positive transient (ΔI=%g, t=%g)", deltaI, rampS)
	}
	l := t.EffectiveInductance()
	res := TransientResult{
		DIDTAmpsPerS:    deltaI / rampS,
		InductiveNoiseV: l * deltaI / rampS,
		ImpedanceNoiseV: deltaI * t.CharacteristicImpedance(),
	}
	res.NoiseV = math.Min(res.InductiveNoiseV, res.ImpedanceNoiseV)
	res.NoiseFraction = res.NoiseV / t.Node.Vdd
	res.OK = res.NoiseFraction <= 0.10
	return res, nil
}

// MinSafeRampS returns the slowest ramp time at which a deltaI step stays
// within the budget fraction of Vdd: zero when the decap absorbs even an
// instant step (ΔI·√(L/C) ≤ budget), otherwise L·ΔI/budget — the point at
// which the inductive bound meets the budget. Wakeup controllers stage the
// block's turn-on over at least this time.
func (t TransientSpec) MinSafeRampS(deltaI, budgetFraction float64) (float64, error) {
	if deltaI <= 0 || budgetFraction <= 0 {
		return 0, fmt.Errorf("powergrid: non-positive inputs (ΔI=%g, budget=%g)", deltaI, budgetFraction)
	}
	budget := budgetFraction * t.Node.Vdd
	if deltaI*t.CharacteristicImpedance() <= budget {
		return 0, nil
	}
	return t.EffectiveInductance() * deltaI / budget, nil
}

// MaxStepA returns the largest instantaneous load step the plan tolerates
// within the budget fraction of Vdd.
func (t TransientSpec) MaxStepA(budgetFraction float64) float64 {
	z := t.CharacteristicImpedance()
	if z == 0 {
		return math.Inf(1)
	}
	return budgetFraction * t.Node.Vdd / z
}
