// Package stackvth implements the paper's §3.3 closing idea: flexible gate
// layouts that assign *different thresholds to the transistors inside one
// cell*. In a series stack, the device nearest the output dominates the
// delay (it sees the full swing early) while any single high-Vth device in
// the stack throttles the subthreshold path; combined with the stack
// effect's state dependence, mixed-Vth stacks buy "fairly substantial
// leakage savings with minimal delay penalties" without the sleep
// transistors of MTCMOS.
//
// The model is a transistor-level series stack: leakage is evaluated per
// input state by solving the intermediate-node voltages that equalize the
// subthreshold currents through the off devices (self-reverse-bias — the
// physical origin of the stack effect), and delay is the sum of the stack's
// effective resistances.
package stackvth

import (
	"fmt"
	"math"

	"nanometer/internal/device"
	"nanometer/internal/mathx"
	"nanometer/internal/units"
)

// Stack is a series NMOS pull-down stack (the NAND bottom network), bottom
// (source-grounded) transistor first.
type Stack struct {
	// Devices are the stacked transistors, each with its own threshold.
	Devices []*device.Device
	// WidthM is the common transistor width.
	WidthM float64
	// Vdd and TemperatureK set the operating point.
	Vdd, TemperatureK float64
}

// NewStackIn builds an n-high stack for a node with the given per-position
// thresholds (bottom first).
func NewStackIn(lab *device.Lab, nodeNM int, n int, widthM float64, vths []float64) (*Stack, error) {
	if n < 1 {
		return nil, fmt.Errorf("stackvth: need at least one device, got %d", n)
	}
	if len(vths) != n {
		return nil, fmt.Errorf("stackvth: %d thresholds for %d devices", len(vths), n)
	}
	base, err := lab.ForNode(nodeNM)
	if err != nil {
		return nil, err
	}
	node := base.VddRef
	s := &Stack{
		WidthM:       widthM,
		Vdd:          node,
		TemperatureK: units.CelsiusToKelvin(85),
	}
	for _, vth := range vths {
		s.Devices = append(s.Devices, base.WithVth(vth))
	}
	return s, nil
}

// subthresholdCurrent returns the channel current (A) of device d at the
// given gate, source, and drain potentials, using the Eq.-4 subthreshold
// model extended with source back-bias and a (1 − exp(−Vds/φt)) drain-
// saturation factor, which is what makes two stacked off devices leak far
// less than one.
func (s *Stack) subthresholdCurrent(d *device.Device, vg, vs, vd float64) float64 {
	phiT := units.ThermalVoltage(s.TemperatureK)
	sw := d.SubthresholdSwing(s.TemperatureK)
	vth := d.VthAt(vd-vs, s.TemperatureK)
	// Source potential raises the effective threshold (body + source
	// degeneration folded into the exponential).
	x := (vg - vs - vth) / sw
	i := d.IoffPrefactorAPerM * s.WidthM * math.Pow(10, x)
	vds := vd - vs
	if vds < 0 {
		vds = 0
	}
	return i * (1 - math.Exp(-vds/phiT))
}

// LeakageForState returns the pull-down leakage (A) for an input vector
// (true = gate high/on), solving the internal node voltages. Bits are
// bottom-first. A fully-on stack returns zero (the pull-up network leaks in
// that state, which the caller accounts separately).
func (s *Stack) LeakageForState(inputs []bool) (float64, error) {
	n := len(s.Devices)
	if len(inputs) != n {
		return 0, fmt.Errorf("stackvth: %d inputs for %d devices", len(inputs), n)
	}
	allOn := true
	for _, on := range inputs {
		if !on {
			allOn = false
			break
		}
	}
	if allOn {
		return 0, nil
	}
	// Current through the stack as a function of the bottom node current:
	// solve for the current I such that propagating node voltages bottom-up
	// lands the top node exactly at Vdd. Monotonic in I → bisection.
	top := s.Vdd
	f := func(logI float64) float64 {
		i := math.Exp(logI)
		v := 0.0 // source of the bottom device
		for k := 0; k < n; k++ {
			d := s.Devices[k]
			vg := 0.0
			if inputs[k] {
				vg = s.Vdd
			}
			// Find the drain voltage putting current i through device k
			// with source v.
			vd, ok := s.solveDrain(d, vg, v, i)
			if !ok {
				return 1 // current too high to sustain: top node would exceed Vdd
			}
			v = vd
		}
		return v - top
	}
	// Bracket on log-current: far below any single device's leakage up to
	// the maximum single-device off current.
	maxI := s.subthresholdCurrent(s.Devices[0], s.Vdd, 0, s.Vdd) * 10
	if maxI <= 0 {
		return 0, nil
	}
	lo, hi := math.Log(maxI)-60, math.Log(maxI)
	if f(lo) > 0 {
		return 0, nil // effectively zero leakage
	}
	if f(hi) < 0 {
		return maxI / 10, nil
	}
	logI, err := mathx.Bisect(f, lo, hi, 1e-9)
	if err != nil {
		return 0, fmt.Errorf("stackvth: leakage solve: %w", err)
	}
	return math.Exp(logI), nil
}

// solveDrain finds vd ≥ vs such that the device carries current i, or
// ok=false when even vd = Vdd cannot carry it.
func (s *Stack) solveDrain(d *device.Device, vg, vs, i float64) (float64, bool) {
	f := func(vd float64) float64 {
		return s.subthresholdCurrent(d, vg, vs, vd) - i
	}
	if f(s.Vdd) < 0 {
		return 0, false
	}
	if f(vs+1e-9) > 0 {
		return vs + 1e-9, true
	}
	vd, err := mathx.Bisect(f, vs+1e-9, s.Vdd, 1e-12)
	if err != nil {
		return 0, false
	}
	return vd, true
}

// AverageLeakage returns the state-averaged leakage (A) over all input
// vectors with equal weights.
func (s *Stack) AverageLeakage() (float64, error) {
	n := len(s.Devices)
	states := 1 << n
	total := 0.0
	for st := 0; st < states; st++ {
		inputs := make([]bool, n)
		for k := 0; k < n; k++ {
			inputs[k] = st&(1<<k) != 0
		}
		l, err := s.LeakageForState(inputs)
		if err != nil {
			return 0, err
		}
		total += l
	}
	return total / float64(states), nil
}

// MinLeakageVector returns the input vector minimizing stack leakage and
// its value — the "state dependence of leakage" that input-vector control
// ([38]) parks idle logic in. The all-on state is excluded: there the
// pull-down conducts and the complementary pull-up network (not modeled
// here) carries the leakage instead.
func (s *Stack) MinLeakageVector() ([]bool, float64, error) {
	n := len(s.Devices)
	states := 1 << n
	best := math.Inf(1)
	var bestVec []bool
	for st := 0; st < states-1; st++ { // states-1 skips all-on
		inputs := make([]bool, n)
		for k := 0; k < n; k++ {
			inputs[k] = st&(1<<k) != 0
		}
		l, err := s.LeakageForState(inputs)
		if err != nil {
			return nil, 0, err
		}
		if l < best {
			best = l
			bestVec = inputs
		}
	}
	return bestVec, best, nil
}

// Delay returns the stack's pull-down delay metric (s) discharging loadF:
// the sum of per-device effective switching resistances times the load.
// Devices switch with full gate drive, so only the threshold (via drive
// current) matters.
func (s *Stack) Delay(loadF float64) float64 {
	rTotal := 0.0
	for _, d := range s.Devices {
		ion := d.IonPerWidth(s.Vdd, s.TemperatureK) * s.WidthM
		if ion <= 0 {
			return math.Inf(1)
		}
		rTotal += 0.69 * s.Vdd / ion
	}
	return rTotal * loadF
}
