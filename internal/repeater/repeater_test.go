package repeater

import (
	"math"
	"testing"
	"testing/quick"

	"nanometer/internal/device"
	"nanometer/internal/itrs"
	"nanometer/internal/units"
	"nanometer/internal/wire"
)

const t85 = 358.15

func TestUnitDriver(t *testing.T) {
	for _, nm := range itrs.Base().NodesNM() {
		d, err := UnitDriverIn(device.BaseLab(), nm, t85)
		if err != nil {
			t.Fatalf("%d nm: %v", nm, err)
		}
		if d.R0 <= 0 || d.C0 <= 0 || d.Cp <= 0 || d.Vdd <= 0 {
			t.Fatalf("%d nm: invalid driver %+v", nm, d)
		}
		// Unit inverter intrinsic delay R0·C0 lands in the sub-ps to
		// tens-of-ps range across the roadmap.
		tau := d.R0 * d.C0
		if tau < 1e-14 || tau > 1e-10 {
			t.Fatalf("%d nm: τ = %g s out of range", nm, tau)
		}
	}
	if _, err := UnitDriverIn(device.BaseLab(), 65, t85); err == nil {
		t.Fatalf("unknown node must error")
	}
}

func TestOptimizeMatchesClosedForm(t *testing.T) {
	d, err := UnitDriverIn(device.BaseLab(), 50, t85)
	if err != nil {
		t.Fatal(err)
	}
	l := mustGlobal(t, 50)
	length, _ := wire.CrossChipLengthIn(itrs.Base(), 50)
	ins := Optimize(d, l, length)
	kf, hf := OptimalClosedForm(d, l, length)
	if math.Abs(float64(ins.Count)-kf) > math.Max(2, 0.1*kf) {
		t.Fatalf("numeric count %d vs closed form %.1f", ins.Count, kf)
	}
	if math.Abs(ins.Size-hf)/hf > 0.15 {
		t.Fatalf("numeric size %.1f vs closed form %.1f", ins.Size, hf)
	}
}

func TestOptimizedBeatsUnrepeated(t *testing.T) {
	d, _ := UnitDriverIn(device.BaseLab(), 50, t85)
	l := mustGlobal(t, 50)
	length := 10e-3
	ins := Optimize(d, l, length)
	if ins.Delay >= l.ElmoreDelay(length) {
		t.Fatalf("repeated line (%g) must beat the unrepeated RC diffusion (%g)",
			ins.Delay, l.ElmoreDelay(length))
	}
}

func TestOptimizedIsMinimum(t *testing.T) {
	// Perturbing the optimum in any direction must not improve delay.
	d, _ := UnitDriverIn(device.BaseLab(), 70, t85)
	l := mustGlobal(t, 70)
	const length = 5e-3
	best := Optimize(d, l, length)
	for _, k := range []int{best.Count - 1, best.Count + 1} {
		if k < 1 {
			continue
		}
		if got := WithRepeaters(d, l, length, k, best.Size); got.Delay < best.Delay*(1-1e-9) {
			t.Fatalf("k=%d beats the optimum: %g < %g", k, got.Delay, best.Delay)
		}
	}
	for _, h := range []float64{best.Size * 0.9, best.Size * 1.1} {
		if got := WithRepeaters(d, l, length, best.Count, h); got.Delay < best.Delay*(1-1e-9) {
			t.Fatalf("h=%g beats the optimum: %g < %g", h, got.Delay, best.Delay)
		}
	}
}

// The repeater-sizing ablation (DESIGN.md §13 item 8): on a cross-chip
// global line, an ad-hoc insertion at half the optimal count and half the
// optimal size must lose to the optimum.
func TestAdhocSizingLoses(t *testing.T) {
	d, err := UnitDriverIn(device.BaseLab(), 50, t85)
	if err != nil {
		t.Fatal(err)
	}
	l := mustGlobal(t, 50)
	length, err := wire.CrossChipLengthIn(itrs.Base(), 50)
	if err != nil {
		t.Fatal(err)
	}
	best := Optimize(d, l, length)
	adhoc := WithRepeaters(d, l, length, best.Count/2, best.Size/2)
	if adhoc.Delay <= best.Delay {
		t.Fatalf("ad-hoc sizing should lose: %g vs optimal %g", adhoc.Delay, best.Delay)
	}
}

func TestRepeatedDelayIsLinearInLength(t *testing.T) {
	// The whole point of repeaters: delay grows ~linearly, not
	// quadratically, with length.
	d, _ := UnitDriverIn(device.BaseLab(), 50, t85)
	l := mustGlobal(t, 50)
	d1 := Optimize(d, l, 5e-3).Delay
	d2 := Optimize(d, l, 10e-3).Delay
	if d2 > 2.3*d1 || d2 < 1.7*d1 {
		t.Fatalf("doubling length scaled delay by %.2f, want ≈2", d2/d1)
	}
}

func TestEnergyComposition(t *testing.T) {
	d, _ := UnitDriverIn(device.BaseLab(), 50, t85)
	l := mustGlobal(t, 50)
	ins := Optimize(d, l, 10e-3)
	wantWire := l.CPerM() * 10e-3
	if !units.ApproxEqual(ins.WireCapF, wantWire, 1e-9, 0) {
		t.Fatalf("wire cap %g, want %g", ins.WireCapF, wantWire)
	}
	wantE := (ins.WireCapF + ins.RepeaterCapF) * d.Vdd * d.Vdd
	if !units.ApproxEqual(ins.EnergyPerTransition, wantE, 1e-9, 0) {
		t.Fatalf("energy %g, want %g", ins.EnergyPerTransition, wantE)
	}
	if ins.RepeaterCapF <= 0 {
		t.Fatalf("repeater capacitance must be positive")
	}
}

func TestOptimalSpacingShrinksWithScaling(t *testing.T) {
	prev := math.Inf(1)
	for _, nm := range itrs.Base().NodesNM() {
		d, err := UnitDriverIn(device.BaseLab(), nm, t85)
		if err != nil {
			t.Fatal(err)
		}
		l := mustGlobal(t, nm)
		s := OptimalSpacing(d, l)
		if s <= 0 || s >= prev {
			t.Fatalf("%d nm: spacing %g must shrink with scaling (prev %g)", nm, s, prev)
		}
		prev = s
	}
}

func TestCensusPaperAnchors(t *testing.T) {
	// The paper: ~10⁴ repeaters in a large 180 nm MPU, ~10⁶ at 50 nm,
	// >50 W of repeated-CMOS signaling power in the nanometer regime.
	c180, err := TakeCensusIn(device.BaseLab(), 180, CensusParams{})
	if err != nil {
		t.Fatal(err)
	}
	if c180.Repeaters < 5e3 || c180.Repeaters > 8e4 {
		t.Fatalf("180 nm census = %d repeaters, paper says ~10⁴", c180.Repeaters)
	}
	c50, err := TakeCensusIn(device.BaseLab(), 50, CensusParams{})
	if err != nil {
		t.Fatal(err)
	}
	if c50.Repeaters < 3e5 || c50.Repeaters > 5e6 {
		t.Fatalf("50 nm census = %d repeaters, paper says ~10⁶", c50.Repeaters)
	}
	if c50.SignalingPowerW < 50 {
		t.Fatalf("50 nm signaling power = %.1f W, paper says >50 W", c50.SignalingPowerW)
	}
	if ratio := float64(c50.Repeaters) / float64(c180.Repeaters); ratio < 30 {
		t.Fatalf("repeater growth 180→50 nm = %.0f×, paper implies ~100×", ratio)
	}
	if c50.RepeaterAreaFraction <= c180.RepeaterAreaFraction {
		t.Fatalf("repeater area share must grow with scaling")
	}
}

func TestCensusParamOverrides(t *testing.T) {
	base, _ := TakeCensusIn(device.BaseLab(), 50, CensusParams{})
	hot, err := TakeCensusIn(device.BaseLab(), 50, CensusParams{Activity: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(hot.SignalingPowerW, 2*base.SignalingPowerW, 1e-9, 0) {
		t.Fatalf("doubling activity must double power")
	}
	if _, err := TakeCensusIn(device.BaseLab(), 65, CensusParams{}); err == nil {
		t.Fatalf("unknown node must error")
	}
}

// Property: the numeric optimum never loses to an arbitrary configuration.
func TestOptimizeDominates(t *testing.T) {
	d, _ := UnitDriverIn(device.BaseLab(), 100, t85)
	l := mustGlobal(t, 100)
	const length = 8e-3
	best := Optimize(d, l, length)
	f := func(kSeed, hSeed uint8) bool {
		k := 1 + int(kSeed)%60
		h := 1 + float64(hSeed)*8
		return WithRepeaters(d, l, length, k, h).Delay >= best.Delay*(1-1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClusterPowerDensityExceeds100WPerCm2(t *testing.T) {
	// Footnote 2: repeater clusters produce local power densities that
	// "can exceed 100 W/cm²" in the nanometer regime.
	c, err := TakeCensusIn(device.BaseLab(), 50, CensusParams{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.ClusterPowerDensityWPerM2 / 1e4; got < 100 {
		t.Fatalf("50 nm cluster density = %.0f W/cm², paper says it can exceed 100", got)
	}
	// And it is far above the chip-average density.
	avg := 50.0 * 1e4 // ~50 W/cm² chip average at the nanometer nodes
	if c.ClusterPowerDensityWPerM2 < 2*avg {
		t.Fatalf("cluster density must dwarf the chip average")
	}
	// The 180 nm clusters run much cooler.
	c180, err := TakeCensusIn(device.BaseLab(), 180, CensusParams{})
	if err != nil {
		t.Fatal(err)
	}
	if c180.ClusterPowerDensityWPerM2 >= c.ClusterPowerDensityWPerM2 {
		t.Fatalf("cluster density must rise with scaling")
	}
}

// mustGlobal returns the global-tier wire of a base-roadmap node, failing
// the test on error.
func mustGlobal(t testing.TB, nodeNM int) wire.Line {
	t.Helper()
	l, err := wire.ForNodeIn(itrs.Base(), nodeNM, wire.Global)
	if err != nil {
		t.Fatal(err)
	}
	return l
}
