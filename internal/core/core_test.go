package core

import (
	"math"
	"reflect"
	"testing"

	"nanometer/internal/cvs"
	"nanometer/internal/device"
	"nanometer/internal/dualvth"
	"nanometer/internal/itrs"
	"nanometer/internal/netlist"
	"nanometer/internal/power"
	"nanometer/internal/resize"
	"nanometer/internal/sta"
	"nanometer/internal/units"
)

func newExplorer(t *testing.T) *Explorer {
	t.Helper()
	node := itrs.Base().MustNode(35)
	ex, err := NewExplorerIn(device.BaseLab(), 35, units.RoomTemperature, 0.1, node.ClockHz)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func TestPolicyVthBehaviour(t *testing.T) {
	ex := newExplorer(t)
	vNom := ex.NominalVdd()
	// At nominal supply all policies sit at the nominal threshold.
	for _, p := range Policies() {
		vth, err := ex.VthFor(p, vNom)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(vth-0.11) > 2e-3 {
			t.Errorf("%v at nominal: Vth = %g, want ≈0.11", p, vth)
		}
	}
	// At 0.2 V the policies separate: constant > conservative > constPs.
	vc, _ := ex.VthFor(ConstantVth, 0.2)
	vcons, _ := ex.VthFor(Conservative, 0.2)
	vps, _ := ex.VthFor(ConstantPstatic, 0.2)
	if !(vc > vcons && vcons > vps) {
		t.Fatalf("threshold ordering broken: %g, %g, %g", vc, vcons, vps)
	}
}

func TestConstantPstaticHoldsStaticPower(t *testing.T) {
	ex := newExplorer(t)
	for _, vdd := range []float64{0.25, 0.35, 0.5} {
		op, err := ex.At(ConstantPstatic, vdd)
		if err != nil {
			t.Fatal(err)
		}
		if !units.ApproxEqual(op.PstaticNorm, 1, 0.02, 0) {
			t.Errorf("constant-Pstatic at %g V: Pstatic = %g, want 1", vdd, op.PstaticNorm)
		}
	}
}

func TestConservativeScalesStaticLinearly(t *testing.T) {
	ex := newExplorer(t)
	for _, vdd := range []float64{0.2, 0.3, 0.4} {
		op, err := ex.At(Conservative, vdd)
		if err != nil {
			t.Fatal(err)
		}
		want := vdd / ex.NominalVdd()
		if !units.ApproxEqual(op.PstaticNorm, want, 0.05, 0) {
			t.Errorf("conservative at %g V: Pstatic = %g, want %g (∝Vdd)", vdd, op.PstaticNorm, want)
		}
	}
}

func TestConstantVthStaticRoughlyQuadratic(t *testing.T) {
	// The paper: at fixed Vth, DIBL makes static power decay "roughly
	// quadratically" with Vdd.
	ex := newExplorer(t)
	op, err := ex.At(ConstantVth, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	ratio := 0.3 / ex.NominalVdd()
	if op.PstaticNorm > ratio*ratio*1.6 || op.PstaticNorm < ratio*ratio*0.5 {
		t.Fatalf("constant-Vth Pstatic at 0.3 V = %g, want ≈quadratic %g", op.PstaticNorm, ratio*ratio)
	}
}

func TestPdynQuadratic(t *testing.T) {
	ex := newExplorer(t)
	op, err := ex.At(ConstantPstatic, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(0.3/ex.NominalVdd(), 2)
	if !units.ApproxEqual(op.PdynNorm, want, 1e-6, 0) {
		t.Fatalf("Pdyn at 0.3 V = %g, want %g (quadratic)", op.PdynNorm, want)
	}
}

func TestFigure3DelayOrdering(t *testing.T) {
	// The headline figure: at Vdd = 0.2 V the constant-Vth delay explodes,
	// constant-Pstatic stays modest, conservative lands in between.
	ex := newExplorer(t)
	dc, err := ex.At(ConstantVth, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	dcons, err := ex.At(Conservative, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	dps, err := ex.At(ConstantPstatic, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !(dc.DelayNorm > dcons.DelayNorm && dcons.DelayNorm > dps.DelayNorm) {
		t.Fatalf("delay ordering broken: %g, %g, %g", dc.DelayNorm, dcons.DelayNorm, dps.DelayNorm)
	}
	if dc.DelayNorm < 2.3 {
		t.Fatalf("constant-Vth at 0.2 V = %g×, paper says ≈3.7×", dc.DelayNorm)
	}
	if dps.DelayNorm > 1.6 {
		t.Fatalf("constant-Pstatic at 0.2 V = %g×, paper says <1.3×", dps.DelayNorm)
	}
	// Dynamic power at 0.2 V is 89 % lower — exact quadratic.
	if !units.ApproxEqual(1-dps.PdynNorm, 8.0/9.0, 1e-6, 0) {
		t.Fatalf("Pdyn reduction at 0.2 V = %g, want 89%%", 1-dps.PdynNorm)
	}
}

func TestSweepMonotoneDelay(t *testing.T) {
	ex := newExplorer(t)
	for _, p := range Policies() {
		ops, err := ex.Sweep(p, []float64{0.2, 0.3, 0.4, 0.5, 0.6})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(ops); i++ {
			if ops[i].DelayNorm >= ops[i-1].DelayNorm {
				t.Fatalf("%v: delay must fall as Vdd rises", p)
			}
		}
		last := ops[len(ops)-1]
		if !units.ApproxEqual(last.DelayNorm, 1, 1e-6, 0) {
			t.Fatalf("%v: nominal point must normalize to 1, got %g", p, last.DelayNorm)
		}
	}
}

func TestVddFloor(t *testing.T) {
	ex := newExplorer(t)
	vdd, savings, err := ex.VddFloor(ConstantPstatic, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The paper: ≈0.44 V and 46 % dynamic-power saving.
	if vdd < 0.40 || vdd > 0.48 {
		t.Fatalf("Vdd floor = %g, paper says ≈0.44", vdd)
	}
	if savings < 0.40 || savings > 0.52 {
		t.Fatalf("savings = %g, paper says 46%%", savings)
	}
	// The constraint must hold exactly at the floor.
	op, err := ex.At(ConstantPstatic, vdd)
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(op.DynOverStatic, 10, 1e-3, 0) {
		t.Fatalf("at the floor Pdyn/Pstatic = %g, want 10", op.DynOverStatic)
	}
	// An unreachable ratio must error.
	if _, _, err := ex.VddFloor(ConstantPstatic, 1e6); err == nil {
		t.Fatalf("impossible ratio must error")
	}
}

func TestPolicyString(t *testing.T) {
	for _, p := range Policies() {
		if p.String() == "" {
			t.Fatalf("policy %d has no name", int(p))
		}
	}
}

// Flow tests ------------------------------------------------------------------

func flowCircuit(t *testing.T, seed int64) *netlist.Circuit {
	t.Helper()
	tech := mustTech(t, 100, 0.65)
	p := netlist.DefaultGenParams()
	p.Gates = 1500
	p.Levels = 30
	p.ShortPathFraction = 0.5
	p.Seed = seed
	c, err := netlist.Generate(tech, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sta.SetPeriodFromCritical(c, 1.15); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunFlowAllStages(t *testing.T) {
	c := flowCircuit(t, 1)
	res, err := RunFlow(c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimingMet {
		t.Fatalf("flow must preserve timing")
	}
	if res.CVS == nil || res.DualVth == nil || res.Resize == nil {
		t.Fatalf("all stages must have run")
	}
	if res.TotalSaving < 0.3 {
		t.Fatalf("combined saving = %g, expected a large reduction", res.TotalSaving)
	}
	if res.LeakageSaving < 0.5 {
		t.Fatalf("leakage saving = %g", res.LeakageSaving)
	}
	if res.After.TotalW() >= res.Before.TotalW() {
		t.Fatalf("power must fall")
	}
}

// The flow is exactly its three stages run in order with default options:
// its stage results, end-to-end reports, savings and timing verdict equal
// a hand-run cvs → dualvth → resize on a clone, bit for bit.
func TestRunFlowMatchesStages(t *testing.T) {
	base := flowCircuit(t, 4)
	flowC, hand := base.Clone(), base.Clone()
	flow, err := RunFlow(flowC)
	if err != nil {
		t.Fatal(err)
	}
	cvsRes, err := cvs.Assign(hand, cvs.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vthRes, err := dualvth.Assign(hand, dualvth.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sizeRes, err := resize.Downsize(hand, resize.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flow.CVS, cvsRes) || !reflect.DeepEqual(flow.DualVth, vthRes) ||
		!reflect.DeepEqual(flow.Resize, sizeRes) {
		t.Fatalf("a flow stage differs from the same stage run by hand")
	}
	if !reflect.DeepEqual(flow.Before, cvsRes.Before) || !reflect.DeepEqual(flow.After, sizeRes.After) {
		t.Fatalf("flow reports differ from the first stage's Before and the last stage's After")
	}
	before, after := cvsRes.Before, sizeRes.After
	for _, s := range []struct {
		name      string
		got, want float64
	}{
		{"total", flow.TotalSaving, 1 - after.TotalW()/before.TotalW()},
		{"dynamic", flow.DynamicSaving, 1 - after.DynamicW/before.DynamicW},
		{"leakage", flow.LeakageSaving, 1 - after.LeakageW/before.LeakageW},
	} {
		if math.Float64bits(s.got) != math.Float64bits(s.want) {
			t.Fatalf("%s saving %v, by hand %v", s.name, s.got, s.want)
		}
	}
	if flow.TimingMet != sizeRes.TimingMet || flow.TimingMet != sta.Analyze(hand).Met() {
		t.Fatalf("flow timing verdict %v differs from the hand-run stages'", flow.TimingMet)
	}
	if !reflect.DeepEqual(flowC.Gates, hand.Gates) {
		t.Fatalf("the flow's netlist differs from the hand-run stages'")
	}
}

func TestRunFlowCombinedBeatsEachAlone(t *testing.T) {
	full, err := RunFlow(flowCircuit(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	saving := func(before, after *power.Report) float64 { return 1 - after.TotalW()/before.TotalW() }
	for _, stage := range []struct {
		name string
		run  func(c *netlist.Circuit) (float64, error)
	}{
		{"cvs", func(c *netlist.Circuit) (float64, error) {
			r, err := cvs.Assign(c, cvs.DefaultOptions())
			if err != nil {
				return 0, err
			}
			return saving(r.Before, r.After), nil
		}},
		{"dualvth", func(c *netlist.Circuit) (float64, error) {
			r, err := dualvth.Assign(c, dualvth.Options{})
			if err != nil {
				return 0, err
			}
			return saving(r.Before, r.After), nil
		}},
		{"resize", func(c *netlist.Circuit) (float64, error) {
			r, err := resize.Downsize(c, resize.DefaultOptions())
			if err != nil {
				return 0, err
			}
			return r.PowerSaving, nil
		}},
	} {
		alone, err := stage.run(flowCircuit(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		if alone >= full.TotalSaving {
			t.Fatalf("%s alone (%g) should not beat the combined flow (%g)", stage.name, alone, full.TotalSaving)
		}
	}
}

func TestRunFlowErrors(t *testing.T) {
	c := flowCircuit(t, 3)
	c.ClockPeriodS = 0
	if _, err := RunFlow(c); err == nil {
		t.Fatalf("missing period must error")
	}
	// The flow's CVS stage needs a low supply.
	single := mustTech(t, 100, 0)
	p := netlist.DefaultGenParams()
	p.Gates = 100
	c2, err := netlist.Generate(single, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sta.SetPeriodFromCritical(c2, 1.1); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFlow(c2); err == nil {
		t.Fatalf("CVS without a low supply must error")
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

// TestVthForAllocations pins that a policy solve allocates at most once
// per call, never per bracket or Brent step: the solvers evaluate one
// device copy whose threshold they set.
func TestVthForAllocations(t *testing.T) {
	ex := newExplorer(t)
	for _, p := range []Policy{ConstantPstatic, Conservative} {
		n := testing.AllocsPerRun(20, func() {
			if _, err := ex.VthFor(p, 0.3); err != nil {
				t.Fatal(err)
			}
		})
		if n > 1 {
			t.Errorf("%v: VthFor allocates %.0f times per call, want ≤ 1", p, n)
		}
	}
}
