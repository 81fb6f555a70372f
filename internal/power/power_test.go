package power

import (
	"math"
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/gate"
	"nanometer/internal/netlist"
	"nanometer/internal/units"
)

func genCircuit(t *testing.T, gates int, seed int64) *netlist.Circuit {
	t.Helper()
	tech := mustTech(t, 100, 0.65)
	p := netlist.DefaultGenParams()
	p.Gates = gates
	p.Seed = seed
	c, err := netlist.Generate(tech, p)
	if err != nil {
		t.Fatal(err)
	}
	c.ClockPeriodS = 1e-9
	return c
}

func TestActivityPropagationInverterChain(t *testing.T) {
	tech := mustTech(t, 100, 0.65)
	c := &netlist.Circuit{Tech: tech, NumPIs: 1, PIActivity: 0.12}
	for i := 0; i < 4; i++ {
		in := netlist.PI(0)
		if i > 0 {
			in = i - 1
		}
		c.Gates = append(c.Gates, netlist.Gate{ID: i, Kind: gate.Inv, Inputs: []int{in}, Size: 2})
	}
	c.Rebuild()
	PropagateActivity(c)
	for i := range c.Gates {
		// An inverter chain from a p=0.5 input keeps p=0.5 and the PI
		// activity everywhere.
		if math.Abs(c.Gates[i].Prob-0.5) > 1e-12 {
			t.Fatalf("gate %d probability = %g, want 0.5", i, c.Gates[i].Prob)
		}
		if math.Abs(c.Gates[i].Activity-0.12) > 1e-12 {
			t.Fatalf("gate %d activity = %g, want 0.12", i, c.Gates[i].Activity)
		}
	}
}

func TestActivityPropagationNandNor(t *testing.T) {
	tech := mustTech(t, 100, 0.65)
	c := &netlist.Circuit{Tech: tech, NumPIs: 2, PIActivity: 0.2}
	c.Gates = []netlist.Gate{
		{ID: 0, Kind: gate.Nand, Inputs: []int{netlist.PI(0), netlist.PI(1)}, Size: 2},
		{ID: 1, Kind: gate.Nor, Inputs: []int{netlist.PI(0), netlist.PI(1)}, Size: 2},
	}
	c.Rebuild()
	PropagateActivity(c)
	// NAND of two p=0.5 inputs: p = 1 − 0.25 = 0.75; NOR: p = 0.25.
	if math.Abs(c.Gates[0].Prob-0.75) > 1e-12 {
		t.Fatalf("NAND probability = %g, want 0.75", c.Gates[0].Prob)
	}
	if math.Abs(c.Gates[1].Prob-0.25) > 1e-12 {
		t.Fatalf("NOR probability = %g, want 0.25", c.Gates[1].Prob)
	}
	// Both have 2·p·(1−p) = 0.375 of the maximum toggle density; with PI
	// activity 0.2 (density 0.4) that is 0.15.
	for i := 0; i < 2; i++ {
		if math.Abs(c.Gates[i].Activity-0.15) > 1e-12 {
			t.Fatalf("gate %d activity = %g, want 0.15", i, c.Gates[i].Activity)
		}
	}
}

func TestAnalyzeTotalsArePartitioned(t *testing.T) {
	c := genCircuit(t, 600, 1)
	r := Analyze(c, 1e9)
	var dyn, leak float64
	for i := range c.Gates {
		dyn += r.GateDynamicW[i]
		leak += r.GateLeakageW[i]
	}
	if !units.ApproxEqual(dyn, r.DynamicW, 1e-9, 0) || !units.ApproxEqual(leak, r.LeakageW, 1e-9, 0) {
		t.Fatalf("per-gate sums do not match totals")
	}
	var byVdd float64
	for _, v := range r.ByVddDynamicW {
		byVdd += v
	}
	if !units.ApproxEqual(byVdd, r.DynamicW, 1e-9, 0) {
		t.Fatalf("per-supply partition does not sum to the dynamic total")
	}
	var byVth float64
	for _, v := range r.ByVthLeakageW {
		byVth += v
	}
	if !units.ApproxEqual(byVth, r.LeakageW, 1e-9, 0) {
		t.Fatalf("per-threshold partition does not sum to the leakage total")
	}
	if r.TotalW() != r.DynamicW+r.LeakageW {
		t.Fatalf("TotalW broken")
	}
	if r.DynamicW <= 0 || r.LeakageW <= 0 {
		t.Fatalf("both power components must be positive")
	}
}

func TestAnalyzeLinearInFrequency(t *testing.T) {
	c := genCircuit(t, 300, 2)
	r1 := Analyze(c, 1e9)
	r2 := Analyze(c, 2e9)
	if !units.ApproxEqual(r2.DynamicW, 2*r1.DynamicW, 1e-9, 0) {
		t.Fatalf("dynamic power must be linear in clock")
	}
	if !units.ApproxEqual(r2.LeakageW, r1.LeakageW, 1e-9, 0) {
		t.Fatalf("leakage must not depend on clock")
	}
}

func TestLevelConverterPowerCounted(t *testing.T) {
	c := genCircuit(t, 300, 3)
	base := Analyze(c, 1e9)
	if base.LevelConverterW != 0 {
		t.Fatalf("no LCs yet, power %g", base.LevelConverterW)
	}
	// Attach converters to some gates.
	n := 0
	for i := range c.Gates {
		if c.Gates[i].IsPO {
			c.Gates[i].NeedsLC = true
			c.Gates[i].VddClass = 1
			n++
		}
	}
	if n == 0 {
		t.Fatalf("no POs")
	}
	withLC := Analyze(c, 1e9)
	if withLC.LevelConverterW <= 0 {
		t.Fatalf("LC power must be counted")
	}
	if withLC.ByVddDynamicW[1] <= 0 {
		t.Fatalf("low-supply dynamic power must be attributed")
	}
}

func TestMovingGatesToLowVddCutsDynamic(t *testing.T) {
	c := genCircuit(t, 500, 4)
	before := Analyze(c, 1e9)
	for i := range c.Gates {
		c.Gates[i].VddClass = 1
	}
	after := Analyze(c, 1e9)
	ratio := after.DynamicW / before.DynamicW
	// Everything at 0.65·Vdd → quadratic 0.42 ratio.
	if !units.ApproxEqual(ratio, 0.65*0.65, 0.01, 0) {
		t.Fatalf("all-low dynamic ratio = %g, want ≈0.42", ratio)
	}
	// Leakage also falls at the lower rail (DIBL and V·I scaling).
	if after.LeakageW >= before.LeakageW {
		t.Fatalf("leakage must fall at the lower supply")
	}
}

func TestAreaEstimate(t *testing.T) {
	c := genCircuit(t, 200, 5)
	plain := EstimateArea(c, 2, 0.06)
	if plain.LCArea != 0 || plain.RailOverhead != 0 {
		t.Fatalf("no multi-Vdd overhead expected before assignment")
	}
	if plain.CellArea <= 0 || plain.Total() != plain.CellArea {
		t.Fatalf("cell area accounting broken")
	}
	c.Gates[0].VddClass = 1
	c.Gates[0].NeedsLC = true
	multi := EstimateArea(c, 2, 0.06)
	if multi.LCArea != 2 {
		t.Fatalf("LC area = %g, want 2", multi.LCArea)
	}
	if !units.ApproxEqual(multi.RailOverhead, 0.06*c.Gates[0].Size, 1e-9, 0) {
		t.Fatalf("rail overhead = %g", multi.RailOverhead)
	}
	if multi.Total() <= plain.Total() {
		t.Fatalf("multi-Vdd must cost area")
	}
}

func TestAnalyzeAutoPropagatesActivity(t *testing.T) {
	c := genCircuit(t, 100, 6)
	// Activities start zero; Analyze must fill them.
	r := Analyze(c, 1e9)
	if r.DynamicW <= 0 {
		t.Fatalf("auto-propagation failed")
	}
	nonZero := 0
	for i := range c.Gates {
		if c.Gates[i].Activity > 0 {
			nonZero++
		}
	}
	if nonZero < len(c.Gates)/2 {
		t.Fatalf("most gates should toggle, got %d of %d", nonZero, len(c.Gates))
	}
}

// mustTech builds a technology on the base roadmap, failing the test on
// error.
func mustTech(t testing.TB, nodeNM int, lowRatio float64) *netlist.Tech {
	t.Helper()
	tech, err := netlist.NewTechIn(device.BaseLab(), nodeNM, lowRatio)
	if err != nil {
		t.Fatal(err)
	}
	return tech
}
