// Package wire models on-chip interconnect parasitics per roadmap node:
// per-length resistance and capacitance for the local, intermediate, and
// global tiers, coupling fractions, and distributed-RC (Elmore) delay. The
// global tier can be evaluated "scaled" (pitch tracks the node) or
// "unscaled" (fat top-level wiring held at 180 nm-class geometry), the
// distinction at the heart of the paper's §2.2 global-signaling discussion.
package wire

import (
	"fmt"
	"math"

	"nanometer/internal/itrs"
	"nanometer/internal/units"
)

// Tier identifies an interconnect layer class.
type Tier int

const (
	Local Tier = iota
	Intermediate
	Global
)

func (t Tier) String() string {
	switch t {
	case Local:
		return "local"
	case Intermediate:
		return "intermediate"
	case Global:
		return "global"
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// Line is a uniform wire segment: geometry plus derived parasitics.
type Line struct {
	Tier Tier
	// WidthM, SpacingM, ThicknessM describe the conductor geometry.
	WidthM, SpacingM, ThicknessM float64
	// ResistivityOhmM is the conductor resistivity.
	ResistivityOhmM float64
	// CTotalFPerM is the total capacitance per length (ground + coupling).
	CTotalFPerM float64
	// CouplingFraction is the share of CTotalFPerM contributed by
	// neighbor coupling (relevant to crosstalk and shielding analyses).
	CouplingFraction float64
}

// DefaultCapacitancePerM is the canonical ~0.2 fF/µm total wire capacitance
// that holds remarkably flat across scaling (aspect ratios rise as pitches
// shrink, trading ground for coupling capacitance).
const DefaultCapacitancePerM = 2.0e-10

// defaultCouplingFraction rises for denser tiers where neighbor coupling
// dominates.
func defaultCouplingFraction(t Tier) float64 {
	switch t {
	case Local:
		return 0.65
	case Intermediate:
		return 0.55
	default:
		return 0.45
	}
}

// ForNodeIn returns the wire model for a tier of a node of table t (scenario
// wire geometry threads through here).
func ForNodeIn(t *itrs.Table, nodeNM int, tier Tier) (Line, error) {
	n, err := t.ByNode(nodeNM)
	if err != nil {
		return Line{}, err
	}
	var pitch, thickness float64
	switch tier {
	case Local:
		pitch = n.WirePitchLocalM
		thickness = pitch // aspect ratio ~2 on half-pitch width
	case Intermediate:
		pitch = (n.WirePitchLocalM + n.WirePitchGlobalM) / 2
		thickness = pitch * 1.1
	case Global:
		pitch = n.WirePitchGlobalM
		thickness = n.TopMetalThicknessM
	default:
		return Line{}, fmt.Errorf("wire: unknown tier %v", tier)
	}
	w := pitch / 2
	return Line{
		Tier:             tier,
		WidthM:           w,
		SpacingM:         pitch - w,
		ThicknessM:       thickness,
		ResistivityOhmM:  units.CopperResistivity,
		CTotalFPerM:      DefaultCapacitancePerM,
		CouplingFraction: defaultCouplingFraction(tier),
	}, nil
}

// UnscaledGlobal returns the "unscaled top-level wiring" global tier the
// paper cites from [9]: 180 nm-class fat wiring (1 µm pitch, 1 µm thick)
// retained at every node so that ITRS global clock targets remain reachable.
func UnscaledGlobal() Line {
	return Line{
		Tier:             Global,
		WidthM:           0.5e-6,
		SpacingM:         0.5e-6,
		ThicknessM:       1.0e-6,
		ResistivityOhmM:  units.CopperResistivity,
		CTotalFPerM:      DefaultCapacitancePerM,
		CouplingFraction: defaultCouplingFraction(Global),
	}
}

// RPerM returns the wire resistance per meter.
func (l Line) RPerM() float64 {
	return l.ResistivityOhmM / (l.WidthM * l.ThicknessM)
}

// CPerM returns the total capacitance per meter.
func (l Line) CPerM() float64 { return l.CTotalFPerM }

// CCouplingPerM returns the neighbor-coupling component per meter.
func (l Line) CCouplingPerM() float64 { return l.CTotalFPerM * l.CouplingFraction }

// RCPerM2 returns the distributed RC product per meter² (s/m²).
func (l Line) RCPerM2() float64 { return l.RPerM() * l.CPerM() }

// ElmoreDelay returns the 50 % delay of an unbuffered distributed RC line of
// the given length: 0.38·r·c·L².
func (l Line) ElmoreDelay(lengthM float64) float64 {
	return 0.38 * l.RCPerM2() * lengthM * lengthM
}

// DrivenDelay returns the 50 % delay of the line driven by a source of
// resistance rdrv ohms into a far-end load of cload farads:
// 0.69·(Rd·(Cw+Cl) + Rw·Cl) + 0.38·Rw·Cw.
func (l Line) DrivenDelay(lengthM, rdrv, cload float64) float64 {
	rw := l.RPerM() * lengthM
	cw := l.CPerM() * lengthM
	return 0.69*(rdrv*(cw+cload)+rw*cload) + 0.38*rw*cw
}

// Energy returns the switching energy of the line per rail-to-rail
// transition at supply vdd: Cw·Vdd².
func (l Line) Energy(lengthM, vdd float64) float64 {
	return l.CPerM() * lengthM * vdd * vdd
}

// CrossChipLengthIn returns the die-edge length (m) for a node — the canonical
// "corner-to-corner-ish" global wire the paper's cross-chip communication
// concerns: the die is modeled square.
func CrossChipLengthIn(t *itrs.Table, nodeNM int) (float64, error) {
	n, err := t.ByNode(nodeNM)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(n.DieAreaM2), nil
}
