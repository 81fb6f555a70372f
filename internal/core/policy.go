// Package core implements the paper's primary advocated contribution
// (§3.3): the scalable dynamic/static power approach combining multiple
// supply voltages, multiple thresholds, and transistor re-sizing.
//
// It has two faces. The policy face models the continuous design space of
// Figures 3 and 4: how the threshold should track a falling supply
// (constant Vth, constant static power, or conservative scaling) and what
// that does to delay and to the dynamic/static power balance. The flow face
// runs the discrete netlist optimization pipeline — CVS supply assignment,
// dual-Vth assignment, then downsizing — and reports the combined result.
package core

import (
	"fmt"
	"math"

	"nanometer/internal/device"
	"nanometer/internal/gate"
	"nanometer/internal/mathx"
)

// Policy selects how the threshold voltage tracks a reduced supply.
type Policy int

const (
	// ConstantVth holds the threshold at its nominal value; static power
	// then falls roughly quadratically with Vdd (DIBL shrinks Ioff), but
	// delay degrades steeply as the supply approaches the threshold.
	ConstantVth Policy = iota
	// ConstantPstatic lowers Vth as Vdd falls so that Ioff·Vdd stays
	// constant — the paper's headline policy: at 35 nm it holds the delay
	// increase under ~30 % at Vdd = 0.2 V while dynamic power drops 89 %.
	ConstantPstatic
	// Conservative lowers Vth only enough to hold Ioff constant, so static
	// power falls linearly with Vdd; delay lands between the other two.
	Conservative
)

func (p Policy) String() string {
	switch p {
	case ConstantVth:
		return "constant Vth"
	case ConstantPstatic:
		return "scaled Vth, constant Pstatic"
	case Conservative:
		return "conservatively scaled Vth"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Policies lists all supply-scaling policies.
func Policies() []Policy { return []Policy{ConstantVth, ConstantPstatic, Conservative} }

// OperatingPoint is one evaluated (Vdd, policy) point of the design space.
type OperatingPoint struct {
	Policy Policy
	Vdd    float64
	// Vth is the applied threshold under the policy.
	Vth float64
	// DelayNorm is delay normalized to the nominal-supply point.
	DelayNorm float64
	// PdynNorm is dynamic power normalized to nominal (∝ Vdd² at fixed
	// frequency and capacitance).
	PdynNorm float64
	// PstaticNorm is static power normalized to nominal.
	PstaticNorm float64
	// DynOverStatic is Pdynamic/Pstatic at the evaluation activity.
	DynOverStatic float64
}

// Explorer evaluates the policy design space for one node's reference
// inverter.
type Explorer struct {
	// NodeNM is the roadmap node (Figure 3/4 use 35 nm).
	NodeNM int
	// TemperatureK is the analysis temperature (default 300 K).
	TemperatureK float64
	// Activity and ClockHz set the dynamic-power operating point for the
	// Pdyn/Pstatic ratio (Figure 4 uses activity 0.1 at the node clock).
	Activity float64
	ClockHz  float64

	inv     *gate.Gate
	nominal struct {
		vdd, vth, delay, pdyn, pstat float64
	}
}

// NewExplorerIn builds the explorer for a node at its nominal supply and
// threshold.
func NewExplorerIn(lab *device.Lab, nodeNM int, tKelvin, activity, clockHz float64) (*Explorer, error) {
	inv, err := gate.ReferenceInverterIn(lab, nodeNM)
	if err != nil {
		return nil, err
	}
	e := &Explorer{
		NodeNM:       nodeNM,
		TemperatureK: tKelvin,
		Activity:     activity,
		ClockHz:      clockHz,
		inv:          inv,
	}
	n := inv.N
	e.nominal.vdd = n.VddRef
	e.nominal.vth = n.Vth0
	e.nominal.delay = inv.FO4Delay(n.VddRef, tKelvin)
	e.nominal.pdyn = inv.DynamicPower(activity, clockHz, n.VddRef, inv.FO4Load(-1))
	e.nominal.pstat = inv.LeakagePower(n.VddRef, tKelvin)
	return e, nil
}

// NominalVdd returns the node's nominal supply.
func (e *Explorer) NominalVdd() float64 { return e.nominal.vdd }

// VthFor returns the threshold a policy applies at supply vdd.
func (e *Explorer) VthFor(p Policy, vdd float64) (float64, error) {
	n := e.inv.N
	switch p {
	case ConstantVth:
		return n.Vth0, nil
	case ConstantPstatic:
		target := n.IoffPerWidth(e.nominal.vdd, e.TemperatureK) * e.nominal.vdd
		return solveVth(n, e.TemperatureK, vdd, func(d *device.Device) float64 {
			return d.IoffPerWidth(vdd, e.TemperatureK)*vdd - target
		})
	case Conservative:
		target := n.IoffPerWidth(e.nominal.vdd, e.TemperatureK)
		return solveVth(n, e.TemperatureK, vdd, func(d *device.Device) float64 {
			return d.IoffPerWidth(vdd, e.TemperatureK) - target
		})
	}
	return 0, fmt.Errorf("core: unknown policy %v", p)
}

// solveVth finds the threshold making f zero; f must be decreasing in Vth.
func solveVth(n *device.Device, tKelvin, vdd float64, f func(*device.Device) float64) (float64, error) {
	g := func(vth float64) float64 { return f(n.WithVth(vth)) }
	lo, hi, err := mathx.FindBracket(g, -0.2, 0.5, 20)
	if err != nil {
		return 0, fmt.Errorf("core: no Vth solution: %w", err)
	}
	return mathx.Brent(g, lo, hi, 1e-9)
}

// At evaluates the design point for a policy at supply vdd.
func (e *Explorer) At(p Policy, vdd float64) (OperatingPoint, error) {
	vth, err := e.VthFor(p, vdd)
	if err != nil {
		return OperatingPoint{}, err
	}
	inv := e.inv.WithVth(vth)
	delay := inv.FO4Delay(vdd, e.TemperatureK)
	pdyn := inv.DynamicPower(e.Activity, e.ClockHz, vdd, inv.FO4Load(-1))
	pstat := inv.LeakagePower(vdd, e.TemperatureK)
	op := OperatingPoint{
		Policy:      p,
		Vdd:         vdd,
		Vth:         vth,
		DelayNorm:   delay / e.nominal.delay,
		PdynNorm:    pdyn / e.nominal.pdyn,
		PstaticNorm: pstat / e.nominal.pstat,
	}
	if pstat > 0 {
		op.DynOverStatic = pdyn / pstat
	} else {
		op.DynOverStatic = math.Inf(1)
	}
	return op, nil
}

// Sweep evaluates a policy across supplies (ascending slice).
func (e *Explorer) Sweep(p Policy, vdds []float64) ([]OperatingPoint, error) {
	out := make([]OperatingPoint, 0, len(vdds))
	for _, v := range vdds {
		op, err := e.At(p, v)
		if err != nil {
			return nil, fmt.Errorf("core: policy %v at %g V: %w", p, v, err)
		}
		out = append(out, op)
	}
	return out, nil
}

// VddFloor returns the lowest supply at which Pdynamic ≥ ratio·Pstatic
// under the policy — the paper's §3.3 computation: with the ITRS 10×
// constraint and the constant-Pstatic policy at 35 nm, Vdd ≈ 0.44 V,
// saving 46 % of dynamic power.
func (e *Explorer) VddFloor(p Policy, ratio float64) (vdd float64, savings float64, err error) {
	f := func(v float64) float64 {
		op, opErr := e.At(p, v)
		if opErr != nil {
			return math.NaN()
		}
		return op.DynOverStatic - ratio
	}
	lo, hi := 0.1, e.nominal.vdd
	if f(hi) < 0 {
		return 0, 0, fmt.Errorf("core: ratio %g not met even at nominal Vdd", ratio)
	}
	if f(lo) > 0 {
		// The whole range satisfies the constraint.
		op, _ := e.At(p, lo)
		return lo, 1 - op.PdynNorm, nil
	}
	v, err := mathx.Brent(f, lo, hi, 1e-5)
	if err != nil {
		return 0, 0, err
	}
	op, err := e.At(p, v)
	if err != nil {
		return 0, 0, err
	}
	return v, 1 - op.PdynNorm, nil
}
