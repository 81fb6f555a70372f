// Package netlist provides the gate-level substrate the paper's circuit
// techniques run on: a technology binding (node devices at multiple supply
// and threshold levels), a standard-cell library with drive-strength
// families, a netlist IR, and a deterministic random-logic generator with a
// controllable slack-distribution shape.
package netlist

import (
	"fmt"
	"math"

	"nanometer/internal/device"
	"nanometer/internal/gate"
	"nanometer/internal/units"
)

// Tech binds a roadmap node to the supply and threshold levels a design may
// use, and caches per-(kind, Vdd, Vth) unit-cell characteristics so netlist
// analysis stays cheap.
type Tech struct {
	NodeNM int
	// VddLevels are the available supplies, highest first (index 0 is
	// Vdd,h — the timing reference). Both level lists hold at most
	// maxLevels (4) entries.
	VddLevels []float64
	// VthLevels are the available thresholds, lowest (fastest) first.
	VthLevels []float64
	// TemperatureK is the analysis temperature.
	TemperatureK float64
	// UnitWnM / UnitWpM are the unit-drive transistor widths.
	UnitWnM, UnitWpM float64
	// LevelConverterDelayS and LevelConverterEnergyJ price a low-to-high
	// supply crossing.
	LevelConverterDelayS  float64
	LevelConverterEnergyJ float64

	nmos, pmos *device.Device
	// units caches the unit cells densely by unitIndex; every delay and
	// load evaluation in the STA inner loop reads it.
	units []unitCell
}

// unitCell holds the unit-size characteristics of a cell flavor.
type unitCell struct {
	cinF     float64 // input capacitance per pin, unit size
	cselfF   float64 // output self-load, unit size
	driveA   float64 // effective average drive current, unit size
	leakW    float64 // state-averaged leakage power, unit size
	vdd      float64
	delayFit float64
	built    bool
}

// maxLevels bounds the gate kinds and the supply and threshold class
// indices the dense unit-cell cache lays out; NewTechIn builds two levels
// of each class.
const maxLevels = 4

// unitIndex packs a flavor into its units slot: the input count is the
// outermost stride, so the cache grows by appending.
func unitIndex(kind gate.Kind, inputs, vddClass, vthClass int) int {
	if uint(kind) >= maxLevels || uint(vddClass) >= maxLevels || uint(vthClass) >= maxLevels || inputs < 0 {
		panic(fmt.Sprintf("netlist: cell flavor (%v, %d inputs, vdd %d, vth %d) outside the tech's %d-level cache",
			kind, inputs, vddClass, vthClass, maxLevels))
	}
	return ((inputs*maxLevels+int(kind))*maxLevels+vddClass)*maxLevels + vthClass
}

// VthOffsetHigh is the default high-Vth offset above nominal (the dual-Vth
// literature's ≈100 mV split).
const VthOffsetHigh = 0.10

// NewTechIn builds a two-supply, two-threshold technology for a node:
// Vdd levels {Vdd, lowRatio·Vdd} and Vth levels {nominal, nominal+100 mV}.
// Pass lowRatio = 0 for a single-supply technology.
func NewTechIn(lab *device.Lab, nodeNM int, lowRatio float64) (*Tech, error) {
	n, err := lab.ForNode(nodeNM)
	if err != nil {
		return nil, err
	}
	p, err := lab.ForNodePMOS(nodeNM)
	if err != nil {
		return nil, err
	}
	node, err := lab.Node(nodeNM)
	if err != nil {
		return nil, err
	}
	vdds := []float64{node.Vdd}
	if lowRatio > 0 {
		if lowRatio >= 1 {
			return nil, fmt.Errorf("netlist: low-Vdd ratio %g must be < 1", lowRatio)
		}
		vdds = append(vdds, lowRatio*node.Vdd)
	}
	t := &Tech{
		NodeNM:       nodeNM,
		VddLevels:    vdds,
		VthLevels:    []float64{n.Vth0, n.Vth0 + VthOffsetHigh},
		TemperatureK: units.CelsiusToKelvin(85),
		UnitWnM:      4 * n.LeffM,
		UnitWpM:      8 * n.LeffM,
		nmos:         n,
		pmos:         p,
	}
	// Level converter priced as ~1.5 reference-inverter delays and ~2×
	// a unit cell's switching energy — the granularity behind the paper's
	// 8–10 % conversion overhead at media-processor conversion densities.
	ref := gate.NewInverter(n, p, 4, 8)
	t.LevelConverterDelayS = 1.5 * ref.FO4Delay(node.Vdd, t.TemperatureK)
	t.LevelConverterEnergyJ = 2 * ref.SwitchingEnergy(node.Vdd, ref.InputCapacitance())
	return t, nil
}

// VddH returns the high (timing-reference) supply.
func (t *Tech) VddH() float64 { return t.VddLevels[0] }

// HasLowVdd reports whether a second, lower supply exists.
func (t *Tech) HasLowVdd() bool { return len(t.VddLevels) > 1 }

// buildGate constructs the gate-model for a flavor at unit size.
func (t *Tech) buildGate(kind gate.Kind, inputs, vth int) *gate.Gate {
	n := t.nmos.WithVth(t.VthLevels[vth])
	p := t.pmos.WithVth(t.VthLevels[vth])
	switch kind {
	case gate.Inv:
		return gate.NewInverter(n, p, t.UnitWnM/t.nmos.LeffM, t.UnitWpM/t.nmos.LeffM)
	case gate.Nand:
		// Series NMOS stacks are upsized by the stack depth to keep the
		// worst-case pull-down comparable to the inverter.
		return gate.NewNand(n, p, inputs, t.UnitWnM*float64(inputs), t.UnitWpM)
	case gate.Nor:
		return gate.NewNor(n, p, inputs, t.UnitWnM, t.UnitWpM*float64(inputs))
	}
	panic(fmt.Sprintf("netlist: unknown kind %v", kind))
}

// unit returns (building and caching as needed) the unit-cell data for a
// flavor.
func (t *Tech) unit(kind gate.Kind, inputs, vddClass, vthClass int) unitCell {
	k := unitIndex(kind, inputs, vddClass, vthClass)
	if k < len(t.units) && t.units[k].built {
		return t.units[k]
	}
	g := t.buildGate(kind, inputs, vthClass)
	vdd := t.VddLevels[vddClass]
	// Effective average drive current for the delay model.
	inA := g.N.IonPerWidth(vdd, t.TemperatureK)
	ipA := g.P.IonPerWidth(vdd, t.TemperatureK)
	var pd, pu float64
	switch kind {
	case gate.Nand:
		pd = inA * g.WnM / float64(inputs)
		pu = ipA * g.WpM
	case gate.Nor:
		pd = inA * g.WnM
		pu = ipA * g.WpM / float64(inputs)
	default:
		pd = inA * g.WnM
		pu = ipA * g.WpM
	}
	drive := 2 * pd * pu / (pd + pu) // harmonic mean ≈ average transition
	u := unitCell{
		cinF:     g.InputCapacitance(),
		cselfF:   g.SelfCapacitance(),
		driveA:   drive,
		leakW:    g.LeakagePower(vdd, t.TemperatureK),
		vdd:      vdd,
		delayFit: gate.DefaultDelayFit,
		built:    true,
	}
	if k >= len(t.units) {
		t.units = append(t.units, make([]unitCell, k+1-len(t.units))...)
	}
	t.units[k] = u
	return u
}

// PinCapacitance returns the input capacitance of one pin of a cell flavor
// at the given size.
func (t *Tech) PinCapacitance(kind gate.Kind, inputs, vddClass, vthClass int, size float64) float64 {
	return t.unit(kind, inputs, vddClass, vthClass).cinF * size
}

// CellDelay returns the propagation delay of a cell of the given flavor and
// size driving loadF farads.
func (t *Tech) CellDelay(kind gate.Kind, inputs, vddClass, vthClass int, size, loadF float64) float64 {
	u := t.unit(kind, inputs, vddClass, vthClass)
	drive := u.driveA * size
	if drive <= 0 {
		return math.Inf(1)
	}
	c := u.cselfF*size + loadF
	return u.delayFit * c * u.vdd / drive
}

// CellLeakage returns the state-averaged leakage power of a cell.
func (t *Tech) CellLeakage(kind gate.Kind, inputs, vddClass, vthClass int, size float64) float64 {
	return t.unit(kind, inputs, vddClass, vthClass).leakW * size
}

// CellEnergy returns the switching energy per transition of a cell driving
// loadF: (Cself + Cload)·Vdd².
func (t *Tech) CellEnergy(kind gate.Kind, inputs, vddClass, vthClass int, size, loadF float64) float64 {
	u := t.unit(kind, inputs, vddClass, vthClass)
	return (u.cselfF*size + loadF) * u.vdd * u.vdd
}

// Vdd returns the supply of a class index.
func (t *Tech) Vdd(vddClass int) float64 { return t.VddLevels[vddClass] }
