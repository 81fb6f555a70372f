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
	// units holds every cell flavor's unit-size characteristics by
	// [flavor][Vdd class][Vth class], built once by NewTechIn and
	// read-only after. Every delay and load evaluation in the STA inner
	// loop reads it, and clones sharing the Tech read it concurrently.
	// Slots past the tech's levels stay zero (a zero drive reads as an
	// infinite delay); Circuit.Validate rejects gates that would use them.
	units [numFlavors][maxLevels][maxLevels]unitCell
}

// unitCell holds the unit-size characteristics of a cell flavor.
type unitCell struct {
	cinF     float64 // input capacitance per pin, unit size
	cselfF   float64 // output self-load, unit size
	driveA   float64 // effective average drive current, unit size
	leakW    float64 // state-averaged leakage power, unit size
	vdd      float64
	delayFit float64
}

// numFlavors counts the cell flavors the table holds, the ones Generate
// emits: Inv/1, Nand/2, Nand/3, Nor/2 and Nor/3.
const numFlavors = 5

// maxLevels bounds the supply and threshold levels the table holds;
// NewTechIn builds at most two of each.
const maxLevels = 2

// flavorAt numbers the flavors in the table by [kind][inputs]; -1 marks a
// flavor the table does not hold.
var flavorAt = [3][4]int8{
	gate.Inv:  {-1, 0, -1, -1},
	gate.Nand: {-1, -1, 1, 2},
	gate.Nor:  {-1, -1, 3, 4},
}

// flavorOf numbers a (kind, input count) pair in the table, or returns -1
// for a flavor the table does not hold.
func flavorOf(kind gate.Kind, inputs int) int {
	if uint(kind) >= uint(len(flavorAt)) || uint(inputs) >= uint(len(flavorAt[0])) {
		return -1
	}
	return int(flavorAt[kind][inputs])
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
	t.buildUnits()
	return t, nil
}

// VddH returns the high (timing-reference) supply.
func (t *Tech) VddH() float64 { return t.VddLevels[0] }

// HasLowVdd reports whether a second, lower supply exists.
func (t *Tech) HasLowVdd() bool { return len(t.VddLevels) > 1 }

// buildUnits characterizes every flavor at every supply and threshold
// level into the unit-cell table.
func (t *Tech) buildUnits() {
	for vth, v := range t.VthLevels {
		n, p := *t.nmos, *t.pmos
		n.Vth0, p.Vth0 = v, v
		for kind, row := range flavorAt {
			for inputs, f := range row {
				if f < 0 {
					continue
				}
				g := gate.Gate{Kind: gate.Kind(kind), Inputs: inputs, N: &n, P: &p, WnM: t.UnitWnM, WpM: t.UnitWpM}
				// Series stacks are upsized by the stack depth to keep
				// the worst-case drive comparable to the inverter's.
				switch g.Kind {
				case gate.Nand:
					g.WnM *= float64(inputs)
				case gate.Nor:
					g.WpM *= float64(inputs)
				}
				for vdd := range t.VddLevels {
					t.units[f][vdd][vth] = t.characterize(&g, vdd)
				}
			}
		}
	}
}

// characterize computes a unit-size gate's cell data at a supply level.
func (t *Tech) characterize(g *gate.Gate, vddClass int) unitCell {
	vdd := t.VddLevels[vddClass]
	// Effective average drive current for the delay model.
	pd := g.N.IonPerWidth(vdd, t.TemperatureK) * g.WnM
	pu := g.P.IonPerWidth(vdd, t.TemperatureK) * g.WpM
	switch g.Kind {
	case gate.Nand:
		pd /= float64(g.Inputs)
	case gate.Nor:
		pu /= float64(g.Inputs)
	}
	drive := 2 * pd * pu / (pd + pu) // harmonic mean ≈ average transition
	return unitCell{
		cinF:     g.InputCapacitance(),
		cselfF:   g.SelfCapacitance(),
		driveA:   drive,
		leakW:    g.LeakagePower(vdd, t.TemperatureK),
		vdd:      vdd,
		delayFit: gate.DefaultDelayFit,
	}
}

// unit returns the table entry of a flavor. A kind, input count or class
// beyond the table's bounds panics on the index; Circuit.Validate checks
// every gate's flavor and classes up front.
func (t *Tech) unit(kind gate.Kind, inputs, vddClass, vthClass int) *unitCell {
	return &t.units[flavorAt[kind][inputs]][vddClass][vthClass]
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
