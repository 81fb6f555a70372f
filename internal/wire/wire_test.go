package wire

import (
	"math"
	"testing"
	"testing/quick"

	"nanometer/internal/itrs"
	"nanometer/internal/units"
)

func TestForNodeTiers(t *testing.T) {
	for _, nm := range itrs.Base().NodesNM() {
		local := mustLine(t, nm, Local)
		global := mustLine(t, nm, Global)
		if local.RPerM() <= global.RPerM() {
			t.Errorf("%d nm: local wire must be more resistive than global", nm)
		}
		if local.WidthM <= 0 || global.ThicknessM <= 0 {
			t.Errorf("%d nm: non-positive geometry", nm)
		}
		inter := mustLine(t, nm, Intermediate)
		if inter.RPerM() >= local.RPerM() || inter.RPerM() <= global.RPerM() {
			t.Errorf("%d nm: intermediate tier must fall between local and global", nm)
		}
	}
}

func TestForNodeErrors(t *testing.T) {
	if _, err := ForNodeIn(itrs.Base(), 65, Global); err == nil {
		t.Fatalf("unknown node must error")
	}
	if _, err := ForNodeIn(itrs.Base(), 100, Tier(9)); err == nil {
		t.Fatalf("unknown tier must error")
	}
}

func TestGlobalResistanceRisesWithScaling(t *testing.T) {
	prev := 0.0
	for _, nm := range itrs.Base().NodesNM() {
		r := mustLine(t, nm, Global).RPerM()
		if r <= prev {
			t.Fatalf("%d nm: scaled global wire resistance must rise with scaling", nm)
		}
		prev = r
	}
}

func TestUnscaledGlobal(t *testing.T) {
	u := UnscaledGlobal()
	// The unscaled top-level wire is the escape hatch of [9]: much less
	// resistive than the scaled 50 nm global tier.
	scaled := mustLine(t, 50, Global)
	if u.RPerM() >= scaled.RPerM()/3 {
		t.Fatalf("unscaled global wire must be far less resistive (%g vs %g)", u.RPerM(), scaled.RPerM())
	}
	// ~44 Ω/mm for 0.5×1.0 µm copper.
	if got := u.RPerM() / 1e3; got < 30 || got > 60 {
		t.Fatalf("unscaled global R = %g Ω/mm, want ≈44", got)
	}
}

func TestCapacitancePerLength(t *testing.T) {
	// The ~0.2 fF/µm invariant.
	l := mustLine(t, 100, Global)
	if !units.ApproxEqual(l.CPerM(), 2e-10, 1e-12, 0) {
		t.Fatalf("C = %g F/m, want 2e-10", l.CPerM())
	}
	if l.CCouplingPerM() >= l.CPerM() {
		t.Fatalf("coupling component must be a fraction of the total")
	}
}

func TestElmoreQuadratic(t *testing.T) {
	l := mustLine(t, 70, Global)
	f := func(seed uint8) bool {
		x := 1e-4 * (1 + float64(seed)) // 0.1–25.6 mm
		return units.ApproxEqual(l.ElmoreDelay(2*x), 4*l.ElmoreDelay(x), 1e-9, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDrivenDelayLimits(t *testing.T) {
	l := mustLine(t, 70, Global)
	const length = 1e-3
	// With an ideal driver and no load the driven delay reduces to the
	// distributed Elmore term.
	if got, want := l.DrivenDelay(length, 0, 0), l.ElmoreDelay(length); !units.ApproxEqual(got, want, 1e-9, 0) {
		t.Fatalf("ideal-driver delay = %g, want Elmore %g", got, want)
	}
	// Adding drive resistance or load can only slow it.
	if l.DrivenDelay(length, 1e3, 0) <= l.ElmoreDelay(length) {
		t.Fatalf("driver resistance must add delay")
	}
	if l.DrivenDelay(length, 1e3, 1e-14) <= l.DrivenDelay(length, 1e3, 0) {
		t.Fatalf("load must add delay")
	}
}

func TestEnergy(t *testing.T) {
	l := mustLine(t, 50, Global)
	// 1 mm at 0.6 V: C = 0.2 pF → E = CV² = 72 fJ.
	if got := l.Energy(1e-3, 0.6); !units.ApproxEqual(got, 72e-15, 1e-9, 0) {
		t.Fatalf("wire energy = %g, want 72 fJ", got)
	}
}

func TestCrossChipLength(t *testing.T) {
	got, err := CrossChipLengthIn(itrs.Base(), 35)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(itrs.Base().MustNode(35).DieAreaM2)
	if !units.ApproxEqual(got, want, 1e-12, 0) {
		t.Fatalf("cross-chip length = %g, want %g", got, want)
	}
	if _, err := CrossChipLengthIn(itrs.Base(), 65); err == nil {
		t.Fatalf("unknown node must error")
	}
}

func TestTierString(t *testing.T) {
	if Local.String() != "local" || Intermediate.String() != "intermediate" || Global.String() != "global" {
		t.Fatalf("tier strings broken")
	}
}

// mustLine returns a tier of a base-roadmap node, failing the test on error.
func mustLine(t testing.TB, nodeNM int, tier Tier) Line {
	t.Helper()
	l, err := ForNodeIn(itrs.Base(), nodeNM, tier)
	if err != nil {
		t.Fatal(err)
	}
	return l
}
