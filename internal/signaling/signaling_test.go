package signaling

import (
	"testing"

	"nanometer/internal/itrs"
	"nanometer/internal/units"
	"nanometer/internal/wire"
)

func testLink(t testing.TB, scheme Scheme, swing float64) Link {
	return Link{
		Scheme:  scheme,
		Line:    mustGlobal(t, 50),
		LengthM: 6e-3,
		Vdd:     0.6,
		SwingV:  swing,
	}
}

func TestValidate(t *testing.T) {
	good := testLink(t, DifferentialLowSwing, 0.06)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Link{
		{Scheme: LowSwing, Line: good.Line, LengthM: 0, Vdd: 0.6, SwingV: 0.06},
		{Scheme: LowSwing, Line: good.Line, LengthM: 1e-3, Vdd: 0, SwingV: 0.06},
		{Scheme: LowSwing, Line: good.Line, LengthM: 1e-3, Vdd: 0.6, SwingV: 0},
		{Scheme: LowSwing, Line: good.Line, LengthM: 1e-3, Vdd: 0.6, SwingV: 0.7},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad link %d passed validation", i)
		}
	}
	// Full swing ignores SwingV.
	fs := testLink(t, FullSwingRepeated, 0)
	if err := fs.Validate(); err != nil {
		t.Fatalf("full swing with zero SwingV must validate: %v", err)
	}
}

func TestEnergyRatioAlphaStyle(t *testing.T) {
	// Differential at 10 % swing: two wires × 10 % swing = 20 % of the
	// full-swing single wire energy, plus a small receiver term.
	cmp, err := Compare(mustGlobal(t, 50), 6e-3, 0.6, 0.10, DifferentialLowSwing)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.EnergyRatio < 0.18 || cmp.EnergyRatio > 0.30 {
		t.Fatalf("differential 10%% swing energy ratio = %.2f, want ≈0.2", cmp.EnergyRatio)
	}
	// Single-ended low swing halves that again (one wire).
	cmpSE, err := Compare(mustGlobal(t, 50), 6e-3, 0.6, 0.10, LowSwing)
	if err != nil {
		t.Fatal(err)
	}
	if cmpSE.EnergyRatio >= cmp.EnergyRatio {
		t.Fatalf("single-ended low swing must use less energy than differential")
	}
}

func TestEnergyScalesWithSwing(t *testing.T) {
	l5 := testLink(t, LowSwing, 0.05)
	l10 := testLink(t, LowSwing, 0.10)
	e5 := l5.EnergyPerTransition() - l5.receiverEnergy()
	e10 := l10.EnergyPerTransition() - l10.receiverEnergy()
	if !units.ApproxEqual(e10, 2*e5, 1e-9, 0) {
		t.Fatalf("wire energy must be linear in swing: %g vs %g", e10, e5)
	}
}

func TestPowerIncludesReceiverStatic(t *testing.T) {
	l := testLink(t, DifferentialLowSwing, 0.06)
	if got := l.Power(0); got != l.receiverStatic() {
		t.Fatalf("zero-toggle power must equal the sense-amp bias, got %g", got)
	}
	if l.Power(1e9) <= l.Power(1e8) {
		t.Fatalf("power must grow with toggle rate")
	}
}

func TestDelayLowSwingBeatsFullSwingUnrepeated(t *testing.T) {
	// On the same unrepeated line, a low-swing receiver fires earlier on
	// the RC diffusion than a full-rail CMOS threshold.
	fs := testLink(t, FullSwingRepeated, 0)
	ls := testLink(t, LowSwing, 0.06)
	ls.DriverCurrentA = 5e-3
	fs.DriverCurrentA = 5e-3
	if ls.Delay() >= fs.Delay() {
		t.Fatalf("low swing (%g) must beat full swing (%g) on the same unrepeated line",
			ls.Delay(), fs.Delay())
	}
}

func TestPeakCurrentRelief(t *testing.T) {
	fs := testLink(t, FullSwingRepeated, 0)
	diff := testLink(t, DifferentialLowSwing, 0.06)
	if diff.PeakSupplyCurrent(0) >= fs.PeakSupplyCurrent(0) {
		t.Fatalf("low-swing drivers must draw smaller peak currents")
	}
}

func TestNoiseClosure(t *testing.T) {
	// Differential + shielding must close where unshielded single-ended
	// low swing cannot.
	diff := testLink(t, DifferentialLowSwing, 0.06)
	se := testLink(t, LowSwing, 0.06)
	nDiff := diff.Noise(true)
	nSE := se.Noise(false)
	if nDiff.SNR <= nSE.SNR {
		t.Fatalf("differential shielded SNR (%g) must beat unshielded single-ended (%g)", nDiff.SNR, nSE.SNR)
	}
	if nSE.SNR > 1 {
		t.Fatalf("unshielded 10%%-swing single-ended should fail noise closure (SNR %g)", nSE.SNR)
	}
	if nDiff.SNR < 1 {
		t.Fatalf("shielded differential should close (SNR %g)", nDiff.SNR)
	}
	// Shielding always helps.
	if se.Noise(true).SNR <= nSE.SNR {
		t.Fatalf("shielding must improve SNR")
	}
}

func TestRoutingTracks(t *testing.T) {
	diff := testLink(t, DifferentialLowSwing, 0.06)
	se := testLink(t, LowSwing, 0.06)
	if diff.RoutingTracks(false) != 2 || se.RoutingTracks(false) != 1 {
		t.Fatalf("bare track counts wrong")
	}
	if diff.RoutingTracks(true) >= 2*se.RoutingTracks(true) {
		t.Fatalf("shield-amortized differential must cost less than 2× a shielded single-ended track")
	}
}

func TestCompareTrackRatioBelowTwo(t *testing.T) {
	cmp, err := Compare(mustGlobal(t, 35), 5e-3, 0.6, 0.10, DifferentialLowSwing)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.TrackRatio >= 2 {
		t.Fatalf("track ratio %.2f — the paper argues it stays below the naive 2×", cmp.TrackRatio)
	}
	if cmp.PeakCurrentRatio >= 0.2 {
		t.Fatalf("di/dt relief too weak: %g", cmp.PeakCurrentRatio)
	}
}

func TestCompareValidates(t *testing.T) {
	if _, err := Compare(mustGlobal(t, 50), -1, 0.6, 0.1, LowSwing); err == nil {
		t.Fatalf("invalid length must error")
	}
	if _, err := Compare(mustGlobal(t, 50), 1e-3, 0.6, 1.5, LowSwing); err == nil {
		t.Fatalf("swing above Vdd must error")
	}
}

func TestAcrossRoadmapEnergyRatioStable(t *testing.T) {
	// The relative benefit of 10 % swing holds at every node.
	for _, nm := range itrs.Base().NodesNM() {
		node := itrs.Base().MustNode(nm)
		cmp, err := Compare(mustGlobal(t, nm), 5e-3, node.Vdd, 0.10, DifferentialLowSwing)
		if err != nil {
			t.Fatalf("%d nm: %v", nm, err)
		}
		if cmp.EnergyRatio < 0.15 || cmp.EnergyRatio > 0.35 {
			t.Errorf("%d nm: energy ratio %.2f out of band", nm, cmp.EnergyRatio)
		}
	}
}

func TestSchemeString(t *testing.T) {
	for _, s := range []Scheme{FullSwingRepeated, LowSwing, DifferentialLowSwing} {
		if s.String() == "" {
			t.Fatalf("empty scheme name")
		}
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
