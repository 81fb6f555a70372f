package dualvth

import (
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/netlist"
	"nanometer/internal/sta"
)

func circuit(t *testing.T, seed int64, guard float64) *netlist.Circuit {
	t.Helper()
	tech := mustTech(t, 100, 0.65)
	p := netlist.DefaultGenParams()
	p.Gates = 1500
	p.Levels = 30
	p.Seed = seed
	c, err := netlist.Generate(tech, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sta.SetPeriodFromCritical(c, guard); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAssignAtTightClock(t *testing.T) {
	c := circuit(t, 1, 1.0)
	res, err := Assign(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimingMet {
		t.Fatalf("assignment must preserve timing")
	}
	// Published dual-Vth results: 40–80 % leakage reduction with minimal
	// delay penalty.
	if res.LeakageSaving < 0.4 {
		t.Fatalf("leakage saving = %g, want ≥ 40%%", res.LeakageSaving)
	}
	if res.DelayPenalty > 0.02 {
		t.Fatalf("delay penalty = %g, want ≈0 at a tight clock", res.DelayPenalty)
	}
	if res.HighVthFraction <= 0 || res.HighVthFraction > 1 {
		t.Fatalf("fraction out of range: %g", res.HighVthFraction)
	}
}

func TestCriticalPathStaysFast(t *testing.T) {
	c := circuit(t, 2, 1.0)
	base := sta.Analyze(c)
	if _, err := Assign(c, Options{}); err != nil {
		t.Fatal(err)
	}
	// At guard 1.0 the original critical path had zero slack: every gate on
	// it must keep the low threshold (any slowdown would violate).
	final := sta.Analyze(c)
	if final.MaxDelayS > base.MaxDelayS*(1+1e-9) {
		t.Fatalf("critical delay grew: %g → %g", base.MaxDelayS, final.MaxDelayS)
	}
	lowOnCritical := 0
	for _, g := range base.CriticalPath {
		if c.Gates[g].VthClass == 0 {
			lowOnCritical++
		}
	}
	if lowOnCritical == 0 {
		t.Fatalf("the critical path cannot be entirely high-Vth at zero slack")
	}
}

func TestOrderingAblation(t *testing.T) {
	sens, err := Assign(circuit(t, 3, 1.0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	slack, err := Assign(circuit(t, 3, 1.0), Options{Order: BySlack})
	if err != nil {
		t.Fatal(err)
	}
	// Both orderings must produce valid, substantial reductions; the
	// sensitivity ordering should not lose badly.
	if sens.LeakageSaving < slack.LeakageSaving*0.9 {
		t.Fatalf("sensitivity ordering (%g) much worse than slack ordering (%g)",
			sens.LeakageSaving, slack.LeakageSaving)
	}
}

func TestLooseClockConvertsMore(t *testing.T) {
	tight, err := Assign(circuit(t, 4, 1.0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Assign(circuit(t, 4, 1.3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if loose.HighVthFraction < tight.HighVthFraction {
		t.Fatalf("slack must enable conversion: %g (loose) < %g (tight)",
			loose.HighVthFraction, tight.HighVthFraction)
	}
}

func TestAssignErrors(t *testing.T) {
	single := mustTech(t, 100, 0.65)
	single.VthLevels = single.VthLevels[:1]
	p := netlist.DefaultGenParams()
	p.Gates = 100
	c, err := netlist.Generate(single, p)
	if err != nil {
		t.Fatal(err)
	}
	c.ClockPeriodS = 1e-9
	if _, err := Assign(c, Options{}); err == nil {
		t.Fatalf("single-threshold tech must error")
	}
	c2 := circuit(t, 5, 1.1)
	c2.ClockPeriodS = 0
	if _, err := Assign(c2, Options{}); err == nil {
		t.Fatalf("missing period must error")
	}
	c3 := circuit(t, 5, 1.1)
	c3.ClockPeriodS /= 10
	if _, err := Assign(c3, Options{}); err == nil {
		t.Fatalf("violated baseline must error")
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
