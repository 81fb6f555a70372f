package netlist

import (
	"fmt"

	"nanometer/internal/gate"
)

// PI marks a primary-input fanin in a gate's input list: inputs < 0 encode
// primary input index -(i+1).
func PI(i int) int { return -(i + 1) }

// IsPI reports whether a fanin reference is a primary input, and its index.
func IsPI(ref int) (int, bool) {
	if ref < 0 {
		return -ref - 1, true
	}
	return 0, false
}

// Gate is one netlist cell instance.
type Gate struct {
	ID     int
	Kind   gate.Kind
	Inputs []int // gate IDs, or PI(i) references
	// Fanouts lists the gate IDs this gate drives (derived; maintained by
	// Circuit.Rebuild).
	Fanouts []int
	// IsPO marks the gate's output as a primary output (register/port).
	IsPO bool

	// Size is the drive strength in unit cells; VddClass and VthClass
	// index into the Tech levels.
	Size     float64
	VddClass int
	VthClass int

	// WireCapF is the fixed interconnect capacitance on the output net —
	// the component that does *not* shrink when the fanout cells are
	// downsized, which is what makes re-sizing sublinear (§3.3).
	WireCapF float64

	// Prob is the static 1-probability of the output; Activity the toggle
	// rate per cycle. Both are filled by power analysis.
	Prob, Activity float64

	// NeedsLC is set by the multi-Vdd assignment when this gate's output
	// crosses from the low to the high supply through a level converter.
	NeedsLC bool
}

// Circuit is a combinational netlist over a Tech.
type Circuit struct {
	Tech *Tech
	// Gates are stored in topological order (fanins precede fanouts).
	Gates []Gate
	// NumPIs is the primary-input count.
	NumPIs int
	// PIActivity is the toggle rate assumed at every primary input.
	PIActivity float64
	// ClockPeriodS is the timing constraint.
	ClockPeriodS float64
}

// Validate checks structural invariants: topological order, valid fanin
// references, cell flavors the tech's table holds, valid class indices,
// positive sizes.
func (c *Circuit) Validate() error {
	if c.Tech == nil {
		return fmt.Errorf("netlist: circuit has no tech")
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.ID != i {
			return fmt.Errorf("netlist: gate %d has ID %d", i, g.ID)
		}
		if g.Size <= 0 {
			return fmt.Errorf("netlist: gate %d has non-positive size %g", i, g.Size)
		}
		if g.VddClass < 0 || g.VddClass >= len(c.Tech.VddLevels) {
			return fmt.Errorf("netlist: gate %d has Vdd class %d of %d", i, g.VddClass, len(c.Tech.VddLevels))
		}
		if g.VthClass < 0 || g.VthClass >= len(c.Tech.VthLevels) {
			return fmt.Errorf("netlist: gate %d has Vth class %d of %d", i, g.VthClass, len(c.Tech.VthLevels))
		}
		if len(g.Inputs) == 0 {
			return fmt.Errorf("netlist: gate %d has no inputs", i)
		}
		if flavorOf(g.Kind, len(g.Inputs)) < 0 {
			return fmt.Errorf("netlist: gate %d is a %d-input %v, a flavor outside the cell table", i, len(g.Inputs), g.Kind)
		}
		for _, in := range g.Inputs {
			if pi, ok := IsPI(in); ok {
				if pi >= c.NumPIs {
					return fmt.Errorf("netlist: gate %d references PI %d of %d", i, pi, c.NumPIs)
				}
				continue
			}
			if in >= i {
				return fmt.Errorf("netlist: gate %d references gate %d (not topological)", i, in)
			}
		}
	}
	return nil
}

// Rebuild recomputes the fanout lists and marks sink gates as POs.
func (c *Circuit) Rebuild() {
	// Count first, then carve every fanout list out of one backing array.
	counts := make([]int, len(c.Gates))
	total := 0
	for i := range c.Gates {
		for _, in := range c.Gates[i].Inputs {
			if _, ok := IsPI(in); !ok {
				counts[in]++
				total++
			}
		}
	}
	edges := make([]int, total)
	for i := range c.Gates {
		g := &c.Gates[i]
		if counts[i] == 0 {
			g.Fanouts = g.Fanouts[:0]
			continue
		}
		g.Fanouts, edges = edges[:0:counts[i]], edges[counts[i]:]
	}
	for i := range c.Gates {
		for _, in := range c.Gates[i].Inputs {
			if _, ok := IsPI(in); !ok {
				c.Gates[in].Fanouts = append(c.Gates[in].Fanouts, i)
			}
		}
	}
	for i := range c.Gates {
		if len(c.Gates[i].Fanouts) == 0 {
			c.Gates[i].IsPO = true
		}
	}
}

// LoadOn returns the total capacitive load on gate g's output: fanout pin
// capacitances plus the net's wire capacitance, plus a level-converter input
// when one is attached.
func (c *Circuit) LoadOn(g *Gate) float64 {
	load := g.WireCapF
	for _, fo := range g.Fanouts {
		fg := &c.Gates[fo]
		load += c.Tech.PinCapacitance(fg.Kind, len(fg.Inputs), fg.VddClass, fg.VthClass, fg.Size)
	}
	if g.NeedsLC {
		// The converter presents roughly two unit-inverter pins.
		load += 2 * c.Tech.PinCapacitance(gate.Inv, 1, 0, 0, 1)
	}
	return load
}

// GateDelay returns gate g's propagation delay into its current load,
// including the level-converter penalty when its output crosses supplies.
func (c *Circuit) GateDelay(g *Gate) float64 {
	d := c.Tech.CellDelay(g.Kind, len(g.Inputs), g.VddClass, g.VthClass, g.Size, c.LoadOn(g))
	if g.NeedsLC {
		d += c.Tech.LevelConverterDelayS
	}
	return d
}

// Clone returns a deep copy of the circuit sharing the Tech.
func (c *Circuit) Clone() *Circuit {
	cp := *c
	cp.Gates = make([]Gate, len(c.Gates))
	copy(cp.Gates, c.Gates)
	n := 0
	for i := range c.Gates {
		n += len(c.Gates[i].Inputs) + len(c.Gates[i].Fanouts)
	}
	// One backing array for every edge list; each gate's slices are capped
	// at their length, so an append on one never writes into a neighbour.
	edges := make([]int, 0, n)
	share := func(s []int) []int {
		if len(s) == 0 {
			return nil
		}
		at := len(edges)
		edges = append(edges, s...)
		return edges[at:len(edges):len(edges)]
	}
	for i := range cp.Gates {
		g := &cp.Gates[i]
		g.Inputs = share(g.Inputs)
		g.Fanouts = share(g.Fanouts)
	}
	return &cp
}

// Stats summarizes the netlist composition.
type Stats struct {
	Gates, PIs, POs int
	ByKind          map[gate.Kind]int
	TotalSize       float64
}

// Stats returns composition statistics.
func (c *Circuit) Stats() Stats {
	s := Stats{PIs: c.NumPIs, ByKind: map[gate.Kind]int{}}
	for i := range c.Gates {
		g := &c.Gates[i]
		s.Gates++
		if g.IsPO {
			s.POs++
		}
		s.ByKind[g.Kind]++
		s.TotalSize += g.Size
	}
	return s
}
