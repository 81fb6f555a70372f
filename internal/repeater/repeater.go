// Package repeater implements classical CMOS repeater insertion on
// distributed RC lines — the "current signaling paradigm" of the paper's
// §2.2 — including closed-form and numerically optimized repeater count and
// sizing, per-line delay and energy, and a chip-level repeater census and
// power roll-up calibrated to the counts the paper cites (≈10⁴ repeaters in
// a 180 nm MPU growing to ≈10⁶ at 50 nm, >50 W of global-signaling power).
package repeater

import (
	"fmt"
	"math"

	"nanometer/internal/device"
	"nanometer/internal/gate"
	"nanometer/internal/mathx"
	"nanometer/internal/wire"
)

// Driver captures the unit-inverter drive characteristics repeaters are
// sized from.
type Driver struct {
	// R0 is the unit-size drive resistance (Ω), C0 the unit input
	// capacitance (F), Cp the unit parasitic output capacitance (F).
	R0, C0, Cp float64
	// Vdd is the supply the characteristics were extracted at.
	Vdd float64
}

// UnitDriverIn extracts the unit repeater driver for a node at its nominal
// supply and temperature tKelvin. The unit cell is a Wn/L = 1, Wp/L = 2
// inverter.
func UnitDriverIn(lab *device.Lab, nodeNM int, tKelvin float64) (Driver, error) {
	n, err := lab.ForNode(nodeNM)
	if err != nil {
		return Driver{}, err
	}
	p, err := lab.ForNodePMOS(nodeNM)
	if err != nil {
		return Driver{}, err
	}
	node, err := lab.Node(nodeNM)
	if err != nil {
		return Driver{}, err
	}
	inv := gate.NewInverter(n, p, 1, 2)
	in := n.IonPerWidth(node.Vdd, tKelvin) * inv.WnM
	ip := p.IonPerWidth(node.Vdd, tKelvin) * inv.WpM
	if in <= 0 || ip <= 0 {
		return Driver{}, fmt.Errorf("repeater: node %d drives no current", nodeNM)
	}
	// Effective switching resistance of the average transition.
	r0 := 0.5 * (node.Vdd/in + node.Vdd/ip)
	return Driver{
		R0:  r0,
		C0:  inv.InputCapacitance(),
		Cp:  inv.SelfCapacitance(),
		Vdd: node.Vdd,
	}, nil
}

// Insertion describes a repeated line solution.
type Insertion struct {
	// Count is the number of repeaters; Size their drive strength in unit
	// inverters.
	Count int
	Size  float64
	// Delay is the end-to-end propagation delay (s).
	Delay float64
	// EnergyPerTransition is the switched energy per full transition (J),
	// wire plus repeater capacitance.
	EnergyPerTransition float64
	// RepeaterCapF and WireCapF break the switched capacitance down.
	RepeaterCapF, WireCapF float64
}

// segmentDelay returns the delay of k repeaters of size h driving line l.
func segmentDelay(d Driver, l wire.Line, lengthM float64, k int, h float64) float64 {
	if k < 1 || h <= 0 {
		return math.Inf(1)
	}
	seg := lengthM / float64(k)
	rw := l.RPerM() * seg
	cw := l.CPerM() * seg
	rd := d.R0 / h
	cl := d.C0 * h // next repeater's input
	stage := 0.69*(rd*(d.Cp*h+cw+cl)+rw*cl) + 0.38*rw*cw
	return float64(k) * stage
}

// OptimalClosedForm returns the textbook closed-form repeater count and size
// for the line: k = L·sqrt(0.38·r·c / (0.69·R0·C0·(1+Cp/C0))),
// h = sqrt(R0·c/(r·C0)).
func OptimalClosedForm(d Driver, l wire.Line, lengthM float64) (k float64, h float64) {
	r, c := l.RPerM(), l.CPerM()
	k = lengthM * math.Sqrt(0.38*r*c/(0.69*d.R0*d.C0*(1+d.Cp/d.C0)))
	h = math.Sqrt(d.R0 * c / (r * d.C0))
	return k, h
}

// Optimize finds the delay-minimal insertion for the line numerically,
// seeding from the closed form and searching the integer neighborhood of k
// with a golden-section search over h.
func Optimize(d Driver, l wire.Line, lengthM float64) Insertion {
	kf, hf := OptimalClosedForm(d, l, lengthM)
	kLo := int(math.Max(1, math.Floor(kf/2)))
	kHi := int(math.Ceil(kf*2)) + 1
	bestK, bestH, bestT := 1, hf, math.Inf(1)
	for k := kLo; k <= kHi; k++ {
		h, t := mathx.GoldenSection(func(h float64) float64 {
			return segmentDelay(d, l, lengthM, k, h)
		}, math.Max(1, hf/8), hf*8+1, hf*1e-4+1e-9)
		if t < bestT {
			bestK, bestH, bestT = k, h, t
		}
	}
	return describe(d, l, lengthM, bestK, bestH, bestT)
}

// WithRepeaters evaluates a non-optimal explicit choice (used by the
// sizing-ablation bench).
func WithRepeaters(d Driver, l wire.Line, lengthM float64, k int, h float64) Insertion {
	return describe(d, l, lengthM, k, h, segmentDelay(d, l, lengthM, k, h))
}

func describe(d Driver, l wire.Line, lengthM float64, k int, h, t float64) Insertion {
	repCap := float64(k) * (d.C0 + d.Cp) * h
	wireCap := l.CPerM() * lengthM
	return Insertion{
		Count:               k,
		Size:                h,
		Delay:               t,
		EnergyPerTransition: (repCap + wireCap) * d.Vdd * d.Vdd,
		RepeaterCapF:        repCap,
		WireCapF:            wireCap,
	}
}

// OptimalSpacing returns the delay-optimal repeater spacing (m) for the
// line, independent of total length.
func OptimalSpacing(d Driver, l wire.Line) float64 {
	k, _ := OptimalClosedForm(d, l, 1.0) // repeaters per meter
	if k <= 0 {
		return math.Inf(1)
	}
	return 1.0 / k
}

// Census models the chip-level repeater population.
type Census struct {
	NodeNM int
	// RepeatedWireM is the total repeated wirelength (m).
	RepeatedWireM float64
	// Spacing is the optimal repeater spacing used (m).
	Spacing float64
	// Repeaters is the estimated chip repeater count.
	Repeaters int
	// SignalingPowerW is the total global-signaling switching power at the
	// node's global clock with the assumed activity.
	SignalingPowerW float64
	// RepeaterAreaFraction is the silicon area consumed by repeaters,
	// relative to die area (rough, for floorplanning commentary).
	RepeaterAreaFraction float64
	// ClusterPowerDensityWPerM2 is the power density inside a repeater
	// cluster (repeater switching power over repeater silicon area) — the
	// paper's footnote 2: clustering repeaters for floorplanning produces
	// local densities that "can exceed 100 W/cm²", stressing the grid.
	ClusterPowerDensityWPerM2 float64
}

// CensusParams tunes the census model; zero values select defaults.
type CensusParams struct {
	// GlobalUtilization is the fraction of global-tier routing capacity
	// occupied by repeated signal wiring. It grows across nodes as designs
	// use more metal levels; the defaults are calibrated to the paper's
	// 10⁴ (180 nm) → 10⁶ (50 nm) repeater counts.
	GlobalUtilization float64
	// Activity is the data activity factor of global wiring.
	Activity float64
	// Temperature is the junction temperature (K) for drive extraction.
	Temperature float64
}

func (p *CensusParams) fill(nodeNM int) {
	if p.GlobalUtilization == 0 {
		// Linear-in-node-index ramp 180→35 nm.
		u := map[int]float64{180: 0.10, 130: 0.14, 100: 0.19, 70: 0.25, 50: 0.31, 35: 0.38}
		p.GlobalUtilization = u[nodeNM]
		if p.GlobalUtilization == 0 {
			p.GlobalUtilization = 0.2
		}
	}
	if p.Activity == 0 {
		p.Activity = 0.15
	}
	if p.Temperature == 0 {
		p.Temperature = 358.15 // 85 °C junction
	}
}

// TakeCensusIn estimates the repeater count and signaling power for a node
// under the repeated full-swing CMOS paradigm.
func TakeCensusIn(lab *device.Lab, nodeNM int, params CensusParams) (Census, error) {
	params.fill(nodeNM)
	node, err := lab.Node(nodeNM)
	if err != nil {
		return Census{}, err
	}
	d, err := UnitDriverIn(lab, nodeNM, params.Temperature)
	if err != nil {
		return Census{}, err
	}
	line, err := wire.ForNodeIn(lab.Table(), nodeNM, wire.Global)
	if err != nil {
		return Census{}, err
	}
	// Repeated wirelength: utilization of one global routing tier.
	ltot := params.GlobalUtilization * node.DieAreaM2 / node.WirePitchGlobalM
	spacing := OptimalSpacing(d, line)
	count := int(ltot / spacing)
	_, h := OptimalClosedForm(d, line, 1)
	repCap := float64(count) * (d.C0 + d.Cp) * h
	wireCap := line.CPerM() * ltot
	energy := (repCap + wireCap) * node.Vdd * node.Vdd
	power := params.Activity * node.ClockHz * energy
	// Repeater silicon footprint: ≈ 40 (W·L) device areas per unit size.
	repArea := float64(count) * h * 40 * node.LeffM * node.LeffM
	repPower := params.Activity * node.ClockHz * repCap * node.Vdd * node.Vdd
	clusterDensity := 0.0
	if repArea > 0 {
		clusterDensity = repPower / repArea
	}
	return Census{
		NodeNM:                    nodeNM,
		RepeatedWireM:             ltot,
		Spacing:                   spacing,
		Repeaters:                 count,
		SignalingPowerW:           power,
		RepeaterAreaFraction:      repArea / node.DieAreaM2,
		ClusterPowerDensityWPerM2: clusterDensity,
	}, nil
}
