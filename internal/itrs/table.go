package itrs

import (
	"fmt"
	"sort"
)

// Table is a roadmap as a value: a named, ordered set of nodes the models
// compute against. Base() returns the transcribed ITRS-2000 table and
// NewTable builds scenario-modified ones; either is threaded explicitly
// through the model constructors instead of mutating any global state.
type Table struct {
	name  string
	nodes []Node // descending DrawnNM, validated, deduplicated
}

// Base returns the transcribed ITRS-2000 table the paper spans. The Table is
// freshly built on each call (the nodes slice is private to it), so callers
// can hold it without aliasing concerns.
func Base() *Table {
	t, err := NewTable("", roadmap())
	if err != nil {
		panic(err) // the transcribed table is validated by tests
	}
	return t
}

// NewTable builds a validated roadmap from the given nodes. Nodes are copied
// and sorted by descending drawn feature size; duplicate or invalid nodes are
// rejected.
func NewTable(name string, nodes []Node) (*Table, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("itrs: table %q has no nodes", name)
	}
	cp := make([]Node, len(nodes))
	copy(cp, nodes)
	sort.Slice(cp, func(i, j int) bool { return cp[i].DrawnNM > cp[j].DrawnNM })
	for i, n := range cp {
		if err := n.Validate(); err != nil {
			return nil, fmt.Errorf("itrs: table %q: %w", name, err)
		}
		if i > 0 && cp[i-1].DrawnNM == n.DrawnNM {
			return nil, fmt.Errorf("itrs: table %q lists %d nm twice", name, n.DrawnNM)
		}
	}
	return &Table{name: name, nodes: cp}, nil
}

// Name returns the table's label ("" for the base roadmap).
func (t *Table) Name() string { return t.name }

// Len returns the number of nodes.
func (t *Table) Len() int { return len(t.nodes) }

// All returns the nodes ordered from the largest feature size down. The
// slice is freshly allocated; the caller may mutate it.
func (t *Table) All() []Node {
	out := make([]Node, len(t.nodes))
	copy(out, t.nodes)
	return out
}

// NodesNM returns the drawn feature sizes in descending order.
func (t *Table) NodesNM() []int {
	out := make([]int, len(t.nodes))
	for i, n := range t.nodes {
		out[i] = n.DrawnNM
	}
	return out
}

// ByNode returns the entry for the given drawn feature size.
func (t *Table) ByNode(drawnNM int) (Node, error) {
	for _, n := range t.nodes {
		if n.DrawnNM == drawnNM {
			return n, nil
		}
	}
	return Node{}, fmt.Errorf("itrs: table %q has no entry for %d nm", t.name, drawnNM)
}

// MustNode is ByNode for known-good literals; it panics on unknown nodes.
func (t *Table) MustNode(drawnNM int) Node {
	n, err := t.ByNode(drawnNM)
	if err != nil {
		panic(err)
	}
	return n
}

// Nearest returns the tabulated node whose drawn feature size is closest to
// the given one (ties go to the larger node). Scenario resolution uses it to
// seed extension nodes from their closest transcribed neighbour.
func (t *Table) Nearest(drawnNM int) Node {
	best := t.nodes[0]
	for _, n := range t.nodes[1:] {
		if abs(n.DrawnNM-drawnNM) < abs(best.DrawnNM-drawnNM) {
			best = n
		}
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Validate applies physical sanity bounds to one node. The bounds are wide —
// they admit any plausible CMOS roadmap entry, including aggressive what-if
// corners — but reject values that would push the device and solver stacks
// outside their validated regimes (negative geometry, kV supplies, …).
func (n Node) Validate() error {
	type bound struct {
		name     string
		v        float64
		lo, hi   float64
		required bool
	}
	checks := []bound{
		{"drawn feature size (nm)", float64(n.DrawnNM), 10, 1000, true},
		{"year", float64(n.Year), 1990, 2100, true},
		{"Vdd (V)", n.Vdd, 0.2, 5, true},
		{"alternate Vdd (V)", n.VddAlt, 0.2, 5, false},
		{"physical Tox (m)", n.ToxPhysicalM, 0.2e-9, 20e-9, true},
		{"Leff (m)", n.LeffM, 3e-9, 500e-9, true},
		{"Rs (Ω·m)", n.RsOhmM, 0, 2e-3, false},
		{"Ion target (A/m)", n.IonTargetAPerM, 50, 5000, true},
		{"ITRS Ioff (A/m)", n.IoffITRSAPerM, 0, 100, false},
		{"junction temperature (°C)", n.JunctionTempC, 25, 250, true},
		{"ambient temperature (°C)", n.AmbientTempC, -60, n.JunctionTempC, true},
		{"θja (°C/W)", n.ThetaJA, 0.01, 100, true},
		{"max power (W)", n.MaxPowerW, 0.001, 10e3, true},
		{"die area (m²)", n.DieAreaM2, 1e-7, 1e-2, true},
		{"global clock (Hz)", n.ClockHz, 1e6, 1e12, true},
		{"local clock (Hz)", n.LocalClockHz, 1e6, 1e12, true},
		{"total pads", float64(n.TotalPads), 4, 1e6, true},
		{"power-bump fraction", n.PowerBumpFraction, 0.01, 1, true},
		{"min bump pitch (m)", n.BumpPitchMinM, 1e-6, 10e-3, true},
		{"max bump current (A)", n.BumpMaxCurrentA, 1e-4, 100, true},
		{"top-metal min width (m)", n.TopMetalMinWidthM, 5e-9, 100e-6, true},
		{"top-metal thickness (m)", n.TopMetalThicknessM, 5e-9, 100e-6, true},
		{"global wire pitch (m)", n.WirePitchGlobalM, 10e-9, 100e-6, true},
		{"local wire pitch (m)", n.WirePitchLocalM, 5e-9, 100e-6, true},
		{"logic transistors (millions)", n.LogicTransistorsM, 0.01, 1e6, true},
	}
	for _, c := range checks {
		if !c.required && c.v == 0 {
			continue
		}
		if c.v < c.lo || c.v > c.hi || c.v != c.v {
			return fmt.Errorf("node %d nm: %s = %g outside [%g, %g]", n.DrawnNM, c.name, c.v, c.lo, c.hi)
		}
	}
	if n.LocalClockHz < n.ClockHz {
		return fmt.Errorf("node %d nm: local clock %g Hz below global clock %g Hz", n.DrawnNM, n.LocalClockHz, n.ClockHz)
	}
	return nil
}
