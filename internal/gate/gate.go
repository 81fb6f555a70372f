// Package gate provides static-CMOS gate-level delay and power models built
// on the compact devices of internal/device. It covers the paper's reference
// inverter (Wn/L = 4, Wp/L = 8, fan-out of 4, average wiring load), NAND/NOR
// topologies with series-stack leakage, and the derived linear-delay
// parameters the netlist/STA layers consume.
package gate

import (
	"fmt"
	"math"

	"nanometer/internal/device"
)

// Defaults for the load model.
const (
	// DefaultDelayFit is the effective-switching constant mapping CV/I to
	// propagation delay (≈0.69 for an RC step response with the drive
	// modeled as its saturation current resistance).
	DefaultDelayFit = 0.69
	// DefaultOverlapFraction adds gate-overlap and fringing capacitance as
	// a fraction of the intrinsic channel capacitance.
	DefaultOverlapFraction = 0.25
	// DefaultSelfLoadFraction models drain-junction self-loading as a
	// fraction of the gate's input capacitance.
	DefaultSelfLoadFraction = 0.5
	// DefaultWireLoadFraction is the "average interconnect load" of the
	// paper's Figure 1 footnote, expressed as a fraction of the external
	// fan-out gate load (local wiring carries somewhat more capacitance
	// than the gates it connects in these generations). Fitted jointly
	// with the short-circuit fraction so the total switched energy matches
	// the Figure 4 calibration.
	DefaultWireLoadFraction = 1.08
	// DefaultStackFactor is the leakage reduction of two series off
	// transistors relative to one (the stack effect the paper's §3.3
	// intra-cell multi-Vth discussion leverages).
	DefaultStackFactor = 0.12
	// DefaultShortCircuitFraction adds crowbar current during input
	// transitions as a fraction of the capacitive switching energy
	// (≈10 % for well-sized static CMOS with matched edges).
	DefaultShortCircuitFraction = 0.10
)

// Kind enumerates supported static-CMOS topologies.
type Kind int

const (
	Inv Kind = iota
	Nand
	Nor
)

func (k Kind) String() string {
	switch k {
	case Inv:
		return "INV"
	case Nand:
		return "NAND"
	case Nor:
		return "NOR"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Gate is a static CMOS gate instance: a topology, an input count, and
// pull-down/pull-up device widths, evaluated against a device pair.
type Gate struct {
	Kind   Kind
	Inputs int
	// N and P are the NMOS and PMOS device models.
	N, P *device.Device
	// WnM and WpM are the per-transistor channel widths in meters.
	WnM, WpM float64
	// DelayFit, OverlapFraction, SelfLoadFraction override the package
	// defaults when non-zero.
	DelayFit         float64
	OverlapFraction  float64
	SelfLoadFraction float64
	// StackFactor overrides DefaultStackFactor when non-zero.
	StackFactor float64
	// ShortCircuitFraction overrides DefaultShortCircuitFraction when
	// non-zero; set negative to disable short-circuit energy.
	ShortCircuitFraction float64
}

// NewInverter builds the paper's reference inverter for a pair of devices:
// Wn = wnOverL·L, Wp = wpOverL·L with L the NMOS effective length.
func NewInverter(n, p *device.Device, wnOverL, wpOverL float64) *Gate {
	return &Gate{
		Kind: Inv, Inputs: 1, N: n, P: p,
		WnM: wnOverL * n.LeffM,
		WpM: wpOverL * n.LeffM,
	}
}

// ReferenceInverterIn returns the Figure 1/3/4 inverter (Wn/L = 4, Wp/L = 8)
// for a node of the laboratory's roadmap.
func ReferenceInverterIn(lab *device.Lab, nodeNM int) (*Gate, error) {
	n, err := lab.ForNode(nodeNM)
	if err != nil {
		return nil, err
	}
	p, err := lab.ForNodePMOS(nodeNM)
	if err != nil {
		return nil, err
	}
	return NewInverter(n, p, 4, 8), nil
}

// NewNand builds an n-input NAND with the given per-transistor widths.
func NewNand(n, p *device.Device, inputs int, wnM, wpM float64) *Gate {
	return &Gate{Kind: Nand, Inputs: inputs, N: n, P: p, WnM: wnM, WpM: wpM}
}

// NewNor builds an n-input NOR with the given per-transistor widths.
func NewNor(n, p *device.Device, inputs int, wnM, wpM float64) *Gate {
	return &Gate{Kind: Nor, Inputs: inputs, N: n, P: p, WnM: wnM, WpM: wpM}
}

func (g *Gate) delayFit() float64 {
	if g.DelayFit != 0 {
		return g.DelayFit
	}
	return DefaultDelayFit
}

func (g *Gate) overlap() float64 {
	if g.OverlapFraction != 0 {
		return g.OverlapFraction
	}
	return DefaultOverlapFraction
}

func (g *Gate) selfLoad() float64 {
	if g.SelfLoadFraction != 0 {
		return g.SelfLoadFraction
	}
	return DefaultSelfLoadFraction
}

func (g *Gate) stackFactor() float64 {
	if g.StackFactor != 0 {
		return g.StackFactor
	}
	return DefaultStackFactor
}

func (g *Gate) shortCircuit() float64 {
	if g.ShortCircuitFraction < 0 {
		return 0
	}
	if g.ShortCircuitFraction != 0 {
		return g.ShortCircuitFraction
	}
	return DefaultShortCircuitFraction
}

// InputCapacitance returns the capacitance presented by one input pin (F).
func (g *Gate) InputCapacitance() float64 {
	cn := g.N.CoxElectrical() * g.N.LeffM * g.WnM
	cp := g.P.CoxElectrical() * g.P.LeffM * g.WpM
	return (cn + cp) * (1 + g.overlap())
}

// SelfCapacitance returns the drain-junction self-load at the output (F).
func (g *Gate) SelfCapacitance() float64 {
	return g.InputCapacitance() * g.selfLoad()
}

// driveCurrents returns the worst-case pull-down and pull-up drive currents
// (amps) at the given supply and temperature, derated for series stacks.
func (g *Gate) driveCurrents(vdd, tKelvin float64) (in, ip float64) {
	in = g.N.IonPerWidth(vdd, tKelvin) * g.WnM
	ip = g.P.IonPerWidth(vdd, tKelvin) * g.WpM
	switch g.Kind {
	case Nand:
		// Series NMOS stack: n transistors in series divide the drive.
		in /= float64(g.Inputs)
	case Nor:
		ip /= float64(g.Inputs)
	}
	return in, ip
}

// Delay returns the propagation delay (s) driving loadF farads of external
// load at the given supply and temperature, averaged over rising and
// falling transitions.
func (g *Gate) Delay(vdd, tKelvin, loadF float64) float64 {
	in, ip := g.driveCurrents(vdd, tKelvin)
	if in <= 0 || ip <= 0 {
		return math.Inf(1)
	}
	c := g.SelfCapacitance() + loadF
	tFall := g.delayFit() * c * vdd / in
	tRise := g.delayFit() * c * vdd / ip
	return 0.5 * (tFall + tRise)
}

// FO4Load returns the external load of a fan-out-of-4 configuration plus
// the average wiring load (wireFraction of the gate load; pass a negative
// value for the default).
func (g *Gate) FO4Load(wireFraction float64) float64 {
	if wireFraction < 0 {
		wireFraction = DefaultWireLoadFraction
	}
	gateLoad := 4 * g.InputCapacitance()
	return gateLoad * (1 + wireFraction)
}

// FO4Delay returns the fan-out-of-4 delay including average wiring load.
func (g *Gate) FO4Delay(vdd, tKelvin float64) float64 {
	return g.Delay(vdd, tKelvin, g.FO4Load(-1))
}

// SwitchingEnergy returns the energy (J) drawn from the supply per output
// transition pair while driving loadF of external load: Ctot·Vdd² plus the
// short-circuit (crowbar) component of slewed input edges.
func (g *Gate) SwitchingEnergy(vdd, loadF float64) float64 {
	return (g.SelfCapacitance() + loadF) * vdd * vdd * (1 + g.shortCircuit())
}

// DynamicPower returns the average switching power (W) at activity factor
// alpha (output transitions pairs per cycle) and clock frequency fHz.
func (g *Gate) DynamicPower(alpha, fHz, vdd, loadF float64) float64 {
	return alpha * fHz * g.SwitchingEnergy(vdd, loadF)
}

// LeakagePower returns the input-state-averaged subthreshold leakage power
// (W) at the given supply and temperature. Series stacks in the off network
// are derated by the stack factor.
func (g *Gate) LeakagePower(vdd, tKelvin float64) float64 {
	ioffN := g.N.IoffPerWidth(vdd, tKelvin) * g.WnM
	ioffP := g.P.IoffPerWidth(vdd, tKelvin) * g.WpM
	n := float64(g.Inputs)
	states := math.Pow(2, n)
	var leak float64
	switch g.Kind {
	case Inv:
		leak = 0.5 * (ioffN + ioffP)
	case Nand:
		// Output high unless all inputs high. All-zero input stacks every
		// NMOS off (stack factor); single-zero inputs leak through the one
		// off NMOS; all-one input leaks through the parallel off PMOS.
		offStackAll := ioffN * g.stackFactor()
		singleOff := ioffN
		allOn := ioffP * n
		leak = (offStackAll + (states-2)*singleOff + allOn) / states
	case Nor:
		offStackAll := ioffP * g.stackFactor()
		singleOff := ioffP
		allOn := ioffN * n
		leak = (offStackAll + (states-2)*singleOff + allOn) / states
	}
	return leak * vdd
}

// StaticOverDynamic returns Pstatic/Pdynamic for the gate at activity alpha
// and clock fHz with an FO4 + average-wire load — the quantity of Figure 1.
func (g *Gate) StaticOverDynamic(alpha, fHz, vdd, tKelvin float64) float64 {
	pd := g.DynamicPower(alpha, fHz, vdd, g.FO4Load(-1))
	if pd == 0 {
		return math.Inf(1)
	}
	return g.LeakagePower(vdd, tKelvin) / pd
}

// WithVth returns a copy of the gate with both devices' thresholds set to
// the given magnitude.
func (g *Gate) WithVth(vth float64) *Gate {
	c := *g
	c.N = g.N.WithVth(vth)
	c.P = g.P.WithVth(vth)
	return &c
}

// Scaled returns a copy of the gate with both widths multiplied by k.
func (g *Gate) Scaled(k float64) *Gate {
	if k <= 0 {
		panic(fmt.Sprintf("gate: non-positive scale %g", k))
	}
	c := *g
	c.WnM *= k
	c.WpM *= k
	return &c
}
