package gate

import (
	"math"
	"testing"
	"testing/quick"

	"nanometer/internal/device"
	"nanometer/internal/itrs"
	"nanometer/internal/units"
)

func refInv(t *testing.T, nm int) *Gate {
	t.Helper()
	g, err := ReferenceInverterIn(device.BaseLab(), nm)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestReferenceInverterGeometry(t *testing.T) {
	g := refInv(t, 35)
	n := device.BaseLab().MustForNode(35)
	if !units.ApproxEqual(g.WnM, 4*n.LeffM, 1e-12, 0) || !units.ApproxEqual(g.WpM, 8*n.LeffM, 1e-12, 0) {
		t.Fatalf("reference inverter must be Wn/L=4, Wp/L=8 (paper footnote 6)")
	}
}

func TestFO4DelayScalesAcrossNodes(t *testing.T) {
	// FO4 delay must shrink monotonically with scaling at nominal supply.
	prev := math.Inf(1)
	for _, nm := range itrs.Base().NodesNM() {
		g := refInv(t, nm)
		node := itrs.Base().MustNode(nm)
		d := g.FO4Delay(node.Vdd, units.RoomTemperature)
		if d <= 0 || d >= prev {
			t.Fatalf("%d nm FO4 = %g, previous %g — must shrink with scaling", nm, d, prev)
		}
		prev = d
	}
	// And land in a plausible absolute range (tens of ps at 180 nm,
	// few ps at 35 nm).
	d180 := refInv(t, 180).FO4Delay(1.8, units.RoomTemperature)
	if d180 < 10e-12 || d180 > 200e-12 {
		t.Fatalf("180 nm FO4 = %g s, expected tens of ps", d180)
	}
}

func TestDelayMonotoneInSupplyAndLoad(t *testing.T) {
	g := refInv(t, 70)
	T := units.RoomTemperature
	if g.Delay(0.7, T, 1e-15) <= g.Delay(0.9, T, 1e-15) {
		t.Fatalf("delay must fall as supply rises")
	}
	if g.Delay(0.9, T, 2e-15) <= g.Delay(0.9, T, 1e-15) {
		t.Fatalf("delay must rise with load")
	}
}

func TestDelayExplodesWhenCutOff(t *testing.T) {
	g := refInv(t, 70)
	cut := g.WithVth(2)
	if cut.Delay(0.9, units.RoomTemperature, 1e-15) < 1e6*g.Delay(0.9, units.RoomTemperature, 1e-15) {
		t.Fatalf("cut-off gate must be many orders of magnitude slower")
	}
}

func TestSwitchingEnergyQuadratic(t *testing.T) {
	g := refInv(t, 50)
	f := func(seed uint8) bool {
		v := 0.2 + float64(seed)/256
		e1 := g.SwitchingEnergy(v, 1e-15)
		e2 := g.SwitchingEnergy(2*v, 1e-15)
		return units.ApproxEqual(e2, 4*e1, 1e-9, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicPowerLinearInActivityAndFrequency(t *testing.T) {
	g := refInv(t, 50)
	p1 := g.DynamicPower(0.1, 1e9, 0.6, 1e-15)
	if !units.ApproxEqual(g.DynamicPower(0.2, 1e9, 0.6, 1e-15), 2*p1, 1e-12, 0) {
		t.Fatalf("dynamic power must be linear in activity")
	}
	if !units.ApproxEqual(g.DynamicPower(0.1, 2e9, 0.6, 1e-15), 2*p1, 1e-12, 0) {
		t.Fatalf("dynamic power must be linear in frequency")
	}
}

func TestLeakageStackEffect(t *testing.T) {
	n := device.BaseLab().MustForNode(50)
	p, err := device.BaseLab().ForNodePMOS(50)
	if err != nil {
		t.Fatal(err)
	}
	T := units.CelsiusToKelvin(85)
	inv := NewInverter(n, p, 4, 8)
	nand := NewNand(n, p, 2, inv.WnM, inv.WpM)
	// The all-inputs-low NAND state leaks through a stack; the average
	// leakage per unit width must be below a same-width inverter's.
	invLeak := inv.LeakagePower(0.6, T) / (inv.WnM + inv.WpM)
	nandLeak := nand.LeakagePower(0.6, T) / (nand.WnM + nand.WpM)
	if nandLeak <= 0 || invLeak <= 0 {
		t.Fatalf("leakage must be positive")
	}
	if nandLeak > invLeak*2.5 {
		t.Fatalf("NAND leakage per width %g looks unphysical vs inverter %g", nandLeak, invLeak)
	}
}

func TestLeakageRisesWithTemperature(t *testing.T) {
	g := refInv(t, 50)
	if g.LeakagePower(0.6, units.CelsiusToKelvin(85)) <= g.LeakagePower(0.6, units.RoomTemperature) {
		t.Fatalf("leakage must rise with temperature")
	}
}

// The subthreshold-swing temperature ablation at gate level (DESIGN.md §13
// item 3): Figure 1's 85 °C operating point must worsen the static share
// over room temperature.
func TestStaticOverDynamicRisesWithTemperature(t *testing.T) {
	g := refInv(t, 50)
	node := itrs.Base().MustNode(50)
	hot := g.StaticOverDynamic(0.1, node.ClockHz, 0.6, units.CelsiusToKelvin(85))
	cold := g.StaticOverDynamic(0.1, node.ClockHz, 0.6, units.RoomTemperature)
	if hot <= cold {
		t.Fatalf("85 °C must worsen the static share: %g vs %g", hot, cold)
	}
}

func TestStaticOverDynamicInverseInActivity(t *testing.T) {
	g := refInv(t, 50)
	node := itrs.Base().MustNode(50)
	T := units.CelsiusToKelvin(85)
	r1 := g.StaticOverDynamic(0.1, node.ClockHz, 0.6, T)
	r2 := g.StaticOverDynamic(0.2, node.ClockHz, 0.6, T)
	if !units.ApproxEqual(r1, 2*r2, 1e-9, 0) {
		t.Fatalf("Pstatic/Pdyn must scale as 1/activity: %g vs %g", r1, r2)
	}
}

func TestWithVthShiftLowersLeakageRaisesDelay(t *testing.T) {
	g := refInv(t, 70)
	T := units.RoomTemperature
	// Shift each device from its own Vth0: NMOS and PMOS need not share one.
	hi := *g
	hi.N = g.N.WithVth(g.N.Vth0 + 0.1)
	hi.P = g.P.WithVth(g.P.Vth0 + 0.1)
	if hi.LeakagePower(0.9, T) >= g.LeakagePower(0.9, T) {
		t.Fatalf("raising Vth must cut leakage")
	}
	if hi.FO4Delay(0.9, T) <= g.FO4Delay(0.9, T) {
		t.Fatalf("raising Vth must slow the gate")
	}
	// ≈15× leakage ratio for 100 mV (Eq. 4 with S = 85 mV).
	ratio := g.LeakagePower(0.9, T) / hi.LeakagePower(0.9, T)
	want := math.Pow(10, 0.1/0.085)
	if !units.ApproxEqual(ratio, want, 1e-6, 0) {
		t.Fatalf("100 mV leakage ratio = %g, want %g", ratio, want)
	}
}

func TestScaledGate(t *testing.T) {
	g := refInv(t, 70)
	big := g.Scaled(2)
	if !units.ApproxEqual(big.InputCapacitance(), 2*g.InputCapacitance(), 1e-12, 0) {
		t.Fatalf("input capacitance must scale linearly with size")
	}
	T := units.RoomTemperature
	// Delay at a fixed external load improves with size...
	if big.Delay(0.9, T, 10e-15) >= g.Delay(0.9, T, 10e-15) {
		t.Fatalf("upsizing must speed up a fixed load")
	}
	// ...but self-loaded delay (zero external load) is size-invariant.
	if !units.ApproxEqual(big.Delay(0.9, T, 0), g.Delay(0.9, T, 0), 1e-9, 0) {
		t.Fatalf("self-loaded delay must be size-invariant")
	}
}

func TestScaledPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("non-positive scale must panic")
		}
	}()
	refInv(t, 70).Scaled(0)
}

func TestNandNorDriveDerating(t *testing.T) {
	n := device.BaseLab().MustForNode(70)
	p, err := device.BaseLab().ForNodePMOS(70)
	if err != nil {
		t.Fatal(err)
	}
	T := units.RoomTemperature
	w := 4 * n.LeffM
	inv := NewInverter(n, p, 4, 8)
	nand := NewNand(n, p, 2, w, 2*w)
	nor := NewNor(n, p, 2, w, 2*w)
	load := 5e-15
	if nand.Delay(0.9, T, load) <= inv.Delay(0.9, T, load) {
		t.Fatalf("NAND with a series stack must be slower than the inverter")
	}
	if nor.Delay(0.9, T, load) <= inv.Delay(0.9, T, load) {
		t.Fatalf("NOR with a series stack must be slower than the inverter")
	}
}

func TestFO4LoadComposition(t *testing.T) {
	g := refInv(t, 50)
	bare := g.FO4Load(0)
	wired := g.FO4Load(-1) // default wire fraction
	if !units.ApproxEqual(bare, 4*g.InputCapacitance(), 1e-12, 0) {
		t.Fatalf("FO4 load without wire must be 4 pins")
	}
	if wired <= bare {
		t.Fatalf("the average wiring load must add capacitance")
	}
}

func TestKindString(t *testing.T) {
	if Inv.String() != "INV" || Nand.String() != "NAND" || Nor.String() != "NOR" {
		t.Fatalf("kind strings broken")
	}
}

func TestShortCircuitFraction(t *testing.T) {
	g := refInv(t, 70)
	withSC := g.SwitchingEnergy(0.9, 1e-15)
	off := *g
	off.ShortCircuitFraction = -1
	without := off.SwitchingEnergy(0.9, 1e-15)
	if !units.ApproxEqual(withSC, without*1.10, 1e-9, 0) {
		t.Fatalf("default short-circuit adder must be 10%%: %g vs %g", withSC, without)
	}
	custom := *g
	custom.ShortCircuitFraction = 0.25
	if !units.ApproxEqual(custom.SwitchingEnergy(0.9, 1e-15), without*1.25, 1e-9, 0) {
		t.Fatalf("custom short-circuit fraction not honored")
	}
}
