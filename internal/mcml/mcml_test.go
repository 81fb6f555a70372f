package mcml

import (
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/gate"
	"nanometer/internal/itrs"
	"nanometer/internal/units"
)

func TestValidate(t *testing.T) {
	good := &Gate{TailCurrentA: 1e-5, SwingV: 0.2, Vdd: 0.6, LoadF: 1e-15}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Gate{
		{TailCurrentA: 0, SwingV: 0.2, Vdd: 0.6, LoadF: 1e-15},
		{TailCurrentA: 1e-5, SwingV: 0, Vdd: 0.6, LoadF: 1e-15},
		{TailCurrentA: 1e-5, SwingV: 0.7, Vdd: 0.6, LoadF: 1e-15},
		{TailCurrentA: 1e-5, SwingV: 0.2, Vdd: 0.6, LoadF: 0},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad gate %d passed validation", i)
		}
	}
}

func TestForDelayRoundTrip(t *testing.T) {
	const target = 10e-12
	g, err := ForDelay(target, 0.2, 0.6, 2e-15)
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(g.Delay(), target, 1e-9, 0) {
		t.Fatalf("sized gate delay = %g, want %g", g.Delay(), target)
	}
	if _, err := ForDelay(0, 0.2, 0.6, 1e-15); err == nil {
		t.Fatalf("zero target must error")
	}
}

func TestPowerIsStatic(t *testing.T) {
	g, _ := ForDelay(10e-12, 0.2, 0.6, 2e-15)
	// MCML power does not depend on activity at all — it is I·V.
	if !units.ApproxEqual(g.Power(), g.TailCurrentA*0.6, 1e-12, 0) {
		t.Fatalf("power must be Itail·Vdd")
	}
}

func TestFasterCostsMore(t *testing.T) {
	slow, _ := ForDelay(20e-12, 0.2, 0.6, 2e-15)
	fast, _ := ForDelay(5e-12, 0.2, 0.6, 2e-15)
	if fast.Power() <= slow.Power() {
		t.Fatalf("a faster MCML gate must burn more bias power")
	}
	if fast.LoadResistance() >= slow.LoadResistance() {
		t.Fatalf("a faster gate uses a smaller load resistor")
	}
}

func TestCompareAgainstCMOS(t *testing.T) {
	inv, err := gate.ReferenceInverterIn(device.BaseLab(), 35)
	if err != nil {
		t.Fatal(err)
	}
	node := itrs.Base().MustNode(35)
	T := units.CelsiusToKelvin(85)
	cmp, err := Compare(inv, node.Vdd, T, 0.5, node.LocalClockHz)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.McmlPowerW <= 0 || cmp.CmosPowerW <= 0 {
		t.Fatalf("invalid comparison %+v", cmp)
	}
	// The robust claim: MCML's supply ripple is tiny next to the CMOS
	// switching spike.
	if cmp.CurrentRippleRatio >= 0.1 {
		t.Fatalf("di/dt ratio = %g, expected ≪ 1", cmp.CurrentRippleRatio)
	}
	if cmp.CrossoverActivity <= 0 {
		t.Fatalf("crossover must be positive")
	}
	// Consistency: at exactly the crossover activity the two powers match.
	alpha := cmp.CrossoverActivity
	cmosAt := inv.DynamicPower(alpha, node.LocalClockHz, node.Vdd, inv.FO4Load(-1)) +
		inv.LeakagePower(node.Vdd, T)
	if !units.ApproxEqual(cmosAt, cmp.McmlPowerW, 1e-6, 0) {
		t.Fatalf("crossover inconsistent: CMOS %g vs MCML %g", cmosAt, cmp.McmlPowerW)
	}
}

func TestCompareFasterClockFavorsMCML(t *testing.T) {
	// MCML's bias power is set by the gate delay target, not the clock;
	// CMOS switching power is linear in the clock. Deep pipelining (a
	// higher clock on the same gate) therefore moves the crossover
	// activity down — the paper's "high activity circuitry such as
	// datapaths".
	inv, err := gate.ReferenceInverterIn(device.BaseLab(), 35)
	if err != nil {
		t.Fatal(err)
	}
	node := itrs.Base().MustNode(35)
	T := units.CelsiusToKelvin(85)
	base, err := Compare(inv, node.Vdd, T, 0.5, node.LocalClockHz)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Compare(inv, node.Vdd, T, 0.5, 2*node.LocalClockHz)
	if err != nil {
		t.Fatal(err)
	}
	if fast.CrossoverActivity >= base.CrossoverActivity {
		t.Fatalf("a faster clock must move the crossover down: %g vs %g",
			fast.CrossoverActivity, base.CrossoverActivity)
	}
}

func TestSupplyCurrentRipple(t *testing.T) {
	g, _ := ForDelay(10e-12, 0.2, 0.6, 2e-15)
	if g.SupplyCurrentRipple() >= g.TailCurrentA {
		t.Fatalf("ripple must be a small fraction of the steered bias")
	}
}
