package wire

import (
	"testing"

	"nanometer/internal/units"
)

func TestMillerEffectiveCapacitance(t *testing.T) {
	l := mustLine(t, 50, Global)
	quiet := l.CEffectivePerM(AggressorsQuiet, false)
	same := l.CEffectivePerM(AggressorsSameDirection, false)
	opp := l.CEffectivePerM(AggressorsOpposite, false)
	if !(same < quiet && quiet < opp) {
		t.Fatalf("Miller ordering broken: %g, %g, %g", same, quiet, opp)
	}
	// Quiet equals the nominal total.
	if !units.ApproxEqual(quiet, l.CPerM(), 1e-12, 0) {
		t.Fatalf("quiet-aggressor capacitance must equal nominal")
	}
	// Opposite − quiet equals the coupling component (one extra Miller
	// count).
	if !units.ApproxEqual(opp-quiet, l.CCouplingPerM(), 1e-9, 0) {
		t.Fatalf("opposite-switching surplus must equal the coupling capacitance")
	}
	// Shielding pins the capacitance regardless of activity.
	for _, a := range []AggressorActivity{AggressorsQuiet, AggressorsSameDirection, AggressorsOpposite} {
		if got := l.CEffectivePerM(a, true); !units.ApproxEqual(got, l.CPerM(), 1e-12, 0) {
			t.Fatalf("shielded capacitance must be activity-independent, got %g for %v", got, a)
		}
	}
}

func TestDynamicDelayRange(t *testing.T) {
	l := mustLine(t, 50, Global)
	const length, rdrv, cload = 5e-3, 500.0, 10e-15
	best, worst := l.DynamicDelayRange(length, rdrv, cload, false)
	if best >= worst {
		t.Fatalf("aggressor alignment must spread the delay: %g vs %g", best, worst)
	}
	nominal := l.DrivenDelay(length, rdrv, cload)
	if !(best < nominal && nominal < worst) {
		t.Fatalf("nominal delay must sit inside the range")
	}
	sBest, sWorst := l.DynamicDelayRange(length, rdrv, cload, true)
	if sBest != sWorst {
		t.Fatalf("shielding must collapse the range")
	}
}

func TestDelayUncertaintySubstantialOnDenseTiers(t *testing.T) {
	// Coupling dominates on dense tiers, so alignment moves the delay by a
	// large fraction — the §2.2 signal-integrity concern.
	global := mustLine(t, 35, Global)
	u := global.DelayUncertainty(5e-3, 500, 10e-15)
	if u < 0.3 {
		t.Fatalf("global-tier delay uncertainty = %g, expected substantial", u)
	}
	// More coupling → more uncertainty.
	local := mustLine(t, 35, Local)
	if local.CouplingFraction <= global.CouplingFraction {
		t.Skip("tier coupling ordering changed")
	}
	if local.DelayUncertainty(5e-4, 500, 1e-15) <= u*0.8 {
		t.Fatalf("denser coupling should not reduce uncertainty materially")
	}
}

func TestAggressorActivityString(t *testing.T) {
	for _, a := range []AggressorActivity{AggressorsQuiet, AggressorsSameDirection, AggressorsOpposite} {
		if a.String() == "" {
			t.Fatalf("missing name")
		}
	}
}
