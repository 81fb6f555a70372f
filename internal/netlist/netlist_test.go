package netlist

import (
	"math"
	"slices"
	"strings"
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/gate"
	"nanometer/internal/itrs"
	"nanometer/internal/units"
)

func genTest(t *testing.T, gates int, seed int64) *Circuit {
	t.Helper()
	tech := mustTech(t, 100, 0.65)
	p := DefaultGenParams()
	p.Gates = gates
	p.Seed = seed
	c, err := Generate(tech, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateValid(t *testing.T) {
	c := genTest(t, 800, 1)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Gates != 800 {
		t.Fatalf("got %d gates, want 800", st.Gates)
	}
	if st.POs == 0 || st.POs >= st.Gates/2 {
		t.Fatalf("PO count %d implausible", st.POs)
	}
	if len(st.ByKind) < 3 {
		t.Fatalf("generator should mix INV/NAND/NOR, got %v", st.ByKind)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genTest(t, 500, 7)
	b := genTest(t, 500, 7)
	for i := range a.Gates {
		ga, gb := a.Gates[i], b.Gates[i]
		if ga.Kind != gb.Kind || len(ga.Inputs) != len(gb.Inputs) || ga.WireCapF != gb.WireCapF {
			t.Fatalf("gate %d differs between identical seeds", i)
		}
	}
	cOther := genTest(t, 500, 8)
	diff := false
	for i := range a.Gates {
		if a.Gates[i].Kind != cOther.Gates[i].Kind || len(a.Gates[i].Inputs) != len(cOther.Gates[i].Inputs) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatalf("different seeds should give different circuits")
	}
}

func TestGenerateErrors(t *testing.T) {
	tech := mustTech(t, 100, 0.65)
	p := DefaultGenParams()
	p.Gates = 2
	if _, err := Generate(tech, p); err == nil {
		t.Fatalf("tiny gate count must error")
	}
	p = DefaultGenParams()
	p.Levels = 1
	if _, err := Generate(tech, p); err == nil {
		t.Fatalf("single level must error")
	}
}

func TestFanoutConsistency(t *testing.T) {
	c := genTest(t, 600, 3)
	// Every fanout edge must correspond to an input edge and vice versa.
	inEdges := 0
	for i := range c.Gates {
		for _, ref := range c.Gates[i].Inputs {
			if _, isPI := IsPI(ref); !isPI {
				inEdges++
				found := false
				for _, fo := range c.Gates[ref].Fanouts {
					if fo == i {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("edge %d→%d missing from fanout list", ref, i)
				}
			}
		}
	}
	outEdges := 0
	for i := range c.Gates {
		outEdges += len(c.Gates[i].Fanouts)
	}
	if inEdges != outEdges {
		t.Fatalf("edge count mismatch: %d in vs %d out", inEdges, outEdges)
	}
}

func TestPIEncoding(t *testing.T) {
	for i := 0; i < 10; i++ {
		ref := PI(i)
		got, ok := IsPI(ref)
		if !ok || got != i {
			t.Fatalf("PI round trip failed for %d", i)
		}
	}
	if _, ok := IsPI(5); ok {
		t.Fatalf("non-negative refs are gates")
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	base := genTest(t, 100, 1)
	mutate := []func(*Circuit){
		func(c *Circuit) { c.Gates[5].Size = 0 },
		func(c *Circuit) { c.Gates[5].VddClass = 9 },
		func(c *Circuit) { c.Gates[5].VthClass = -1 },
		func(c *Circuit) { c.Gates[5].Inputs = nil },
		func(c *Circuit) { c.Gates[5].Inputs = []int{99} },         // forward reference
		func(c *Circuit) { c.Gates[5].Inputs = []int{PI(100000)} }, // bad PI
		func(c *Circuit) { c.Gates[5].ID = 7 },
		func(c *Circuit) { c.Tech = nil },
	}
	for i, m := range mutate {
		c := base.Clone()
		m(c)
		if err := c.Validate(); err == nil {
			t.Errorf("violation %d not caught", i)
		}
	}
	// A flavor outside the cell table is rejected by name, not left to
	// panic inside the timing loop.
	for _, f := range []struct {
		kind   gate.Kind
		inputs []int
	}{
		{gate.Nand, []int{PI(0), PI(1), PI(2), PI(3)}},
		{gate.Inv, []int{PI(0), PI(1)}},
		{gate.Kind(7), []int{PI(0)}},
	} {
		c := base.Clone()
		c.Gates[5].Kind, c.Gates[5].Inputs = f.kind, f.inputs
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), "gate 5 ") {
			t.Errorf("%d-input %v: got %v, want an error naming gate 5", len(f.inputs), f.kind, err)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := genTest(t, 100, 1)
	b := a.Clone()
	b.Gates[3].Size = 99
	b.Gates[3].Inputs[0] = PI(0)
	if a.Gates[3].Size == 99 {
		t.Fatalf("clone shares gate storage")
	}
	if a.Gates[3].Inputs[0] == PI(0) && a.Gates[3].Inputs[0] != b.Gates[3].Inputs[0] {
		t.Fatalf("clone shares input slices")
	}
	// Edge lists share one backing array per circuit (generated or
	// cloned); growing one list must never write into the next gate's.
	for _, c := range []*Circuit{a, b} {
		next := append([]int(nil), c.Gates[4].Inputs...)
		c.Gates[3].Inputs = append(c.Gates[3].Inputs, PI(1))
		c.Gates[3].Fanouts = append(c.Gates[3].Fanouts, 7)
		if !slices.Equal(c.Gates[4].Inputs, next) {
			t.Fatalf("appending to gate 3's edges changed gate 4's inputs: %v → %v", next, c.Gates[4].Inputs)
		}
	}
}

func TestLoadOnComposition(t *testing.T) {
	c := genTest(t, 300, 2)
	// Find a gate with fanouts.
	for i := range c.Gates {
		g := &c.Gates[i]
		if len(g.Fanouts) == 0 {
			continue
		}
		load := c.LoadOn(g)
		if load <= g.WireCapF {
			t.Fatalf("load must include fanout pins beyond the wire")
		}
		// Attaching a level converter adds load.
		g.NeedsLC = true
		if c.LoadOn(g) <= load {
			t.Fatalf("level converter must add load")
		}
		g.NeedsLC = false
		return
	}
	t.Fatalf("no gate with fanouts found")
}

func TestTechLevels(t *testing.T) {
	tech := mustTech(t, 100, 0.65)
	if !tech.HasLowVdd() {
		t.Fatalf("two-supply tech expected")
	}
	if !units.ApproxEqual(tech.Vdd(1), 0.65*tech.VddH(), 1e-9, 0) {
		t.Fatalf("Vdd,l = %g, want 0.65·Vdd,h", tech.Vdd(1))
	}
	if len(tech.VthLevels) != 2 || tech.VthLevels[1]-tech.VthLevels[0] != VthOffsetHigh {
		t.Fatalf("Vth levels = %v, want nominal and +100 mV", tech.VthLevels)
	}
	single := mustTech(t, 100, 0)
	if single.HasLowVdd() {
		t.Fatalf("lowRatio 0 must give a single supply")
	}
	if _, err := NewTechIn(device.BaseLab(), 100, 1.5); err == nil {
		t.Fatalf("low ratio ≥ 1 must error")
	}
	if _, err := NewTechIn(device.BaseLab(), 65, 0.65); err == nil {
		t.Fatalf("unknown node must error")
	}
}

func TestTechCellCharacteristics(t *testing.T) {
	tech := mustTech(t, 100, 0.65)
	// Pin capacitance and leakage scale linearly with size.
	c1 := tech.PinCapacitance(gate.Inv, 1, 0, 0, 1)
	c2 := tech.PinCapacitance(gate.Inv, 1, 0, 0, 2)
	if !units.ApproxEqual(c2, 2*c1, 1e-9, 0) {
		t.Fatalf("pin capacitance must scale with size")
	}
	l1 := tech.CellLeakage(gate.Inv, 1, 0, 0, 1)
	l2 := tech.CellLeakage(gate.Inv, 1, 0, 0, 2)
	if !units.ApproxEqual(l2, 2*l1, 1e-9, 0) {
		t.Fatalf("leakage must scale with size")
	}
	// Bigger cells drive a fixed load faster.
	load := 20e-15
	if tech.CellDelay(gate.Inv, 1, 0, 0, 2, load) >= tech.CellDelay(gate.Inv, 1, 0, 0, 1, load) {
		t.Fatalf("upsizing must reduce delay into a fixed load")
	}
	// The low supply is slower.
	if tech.CellDelay(gate.Inv, 1, 1, 0, 1, load) <= tech.CellDelay(gate.Inv, 1, 0, 0, 1, load) {
		t.Fatalf("Vdd,l must be slower than Vdd,h")
	}
	// The high threshold leaks less and is slower.
	if tech.CellLeakage(gate.Inv, 1, 0, 1, 1) >= tech.CellLeakage(gate.Inv, 1, 0, 0, 1) {
		t.Fatalf("high Vth must leak less")
	}
	if tech.CellDelay(gate.Inv, 1, 0, 1, 1, load) <= tech.CellDelay(gate.Inv, 1, 0, 0, 1, load) {
		t.Fatalf("high Vth must be slower")
	}
	// Energy at the low supply is quadratically cheaper.
	eh := tech.CellEnergy(gate.Inv, 1, 0, 0, 1, load)
	el := tech.CellEnergy(gate.Inv, 1, 1, 0, 1, load)
	if !units.ApproxEqual(el/eh, 0.65*0.65, 1e-6, 0) {
		t.Fatalf("energy ratio = %g, want 0.65²", el/eh)
	}
	// Level converter pricing is positive.
	if tech.LevelConverterDelayS <= 0 || tech.LevelConverterEnergyJ <= 0 {
		t.Fatalf("level converter must have a cost")
	}
}

func TestGateDelayIncludesLCPenalty(t *testing.T) {
	c := genTest(t, 100, 4)
	g := &c.Gates[50]
	before := c.GateDelay(g)
	g.NeedsLC = true
	after := c.GateDelay(g)
	if after <= before+c.Tech.LevelConverterDelayS*0.99 {
		t.Fatalf("LC delay penalty missing: %g vs %g", after, before)
	}
}

// lazyUnit characterizes one flavor the way the cell table was filled on
// first use before NewTechIn built it whole: fresh devices at the
// threshold, the gate constructors, then the drive and leakage model.
func lazyUnit(t *Tech, kind gate.Kind, inputs, vddClass, vthClass int) unitCell {
	n := t.nmos.WithVth(t.VthLevels[vthClass])
	p := t.pmos.WithVth(t.VthLevels[vthClass])
	var g *gate.Gate
	switch kind {
	case gate.Inv:
		g = gate.NewInverter(n, p, t.UnitWnM/t.nmos.LeffM, t.UnitWpM/t.nmos.LeffM)
	case gate.Nand:
		g = gate.NewNand(n, p, inputs, t.UnitWnM*float64(inputs), t.UnitWpM)
	case gate.Nor:
		g = gate.NewNor(n, p, inputs, t.UnitWnM, t.UnitWpM*float64(inputs))
	}
	vdd := t.VddLevels[vddClass]
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
	return unitCell{
		cinF:     g.InputCapacitance(),
		cselfF:   g.SelfCapacitance(),
		driveA:   2 * pd * pu / (pd + pu),
		leakW:    g.LeakagePower(vdd, t.TemperatureK),
		vdd:      vdd,
		delayFit: gate.DefaultDelayFit,
	}
}

// The table NewTechIn builds must hold, bit for bit, what characterizing
// each flavor on first use gave, on the base roadmap and on a scenario
// lab with other device anchors, with one supply and with two.
func TestUnitTableMatchesLazyCharacterization(t *testing.T) {
	scen, err := device.NewLab(itrs.Base(), map[int]device.Params{100: {VthAnchor: 0.27, DIBL: 0.07}})
	if err != nil {
		t.Fatal(err)
	}
	flavors := []struct {
		kind   gate.Kind
		inputs int
	}{{gate.Inv, 1}, {gate.Nand, 2}, {gate.Nand, 3}, {gate.Nor, 2}, {gate.Nor, 3}}
	for _, lab := range []*device.Lab{device.BaseLab(), scen} {
		for _, low := range []float64{0.65, 0} {
			tech, err := NewTechIn(lab, 100, low)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range flavors {
				for vdd := range tech.VddLevels {
					for vth := range tech.VthLevels {
						got, want := *tech.unit(f.kind, f.inputs, vdd, vth), lazyUnit(tech, f.kind, f.inputs, vdd, vth)
						for k, v := range [][2]float64{
							{got.cinF, want.cinF}, {got.cselfF, want.cselfF}, {got.driveA, want.driveA},
							{got.leakW, want.leakW}, {got.vdd, want.vdd}, {got.delayFit, want.delayFit},
						} {
							if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
								t.Errorf("low %g, %d-input %v, vdd %d, vth %d: field %d is %g, lazy fill %g",
									low, f.inputs, f.kind, vdd, vth, k, v[0], v[1])
							}
						}
					}
				}
			}
		}
	}
}

// mustTech builds a technology on the base roadmap, failing the test on
// error.
func mustTech(t testing.TB, nodeNM int, lowRatio float64) *Tech {
	t.Helper()
	tech, err := NewTechIn(device.BaseLab(), nodeNM, lowRatio)
	if err != nil {
		t.Fatal(err)
	}
	return tech
}

// TestGenerateAllocationsFlat pins that Generate's allocation count does
// not grow with the gate count: every per-gate list is carved out of a
// fixed number of backing arrays.
func TestGenerateAllocationsFlat(t *testing.T) {
	tech := mustTech(t, 100, 0.65)
	allocs := func(gates int) float64 {
		p := DefaultGenParams()
		p.Gates = gates
		// Twenty runs, so that a stray allocation of a GC cycle rounds away.
		return testing.AllocsPerRun(20, func() {
			if _, err := Generate(tech, p); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(500), allocs(4000); large > small {
		t.Errorf("Generate allocates %.0f times at 4000 gates against %.0f at 500", large, small)
	}
}
