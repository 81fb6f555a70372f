package mtcmos

import (
	"math"
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/units"
)

func block(t *testing.T, sleepFrac float64) *Block {
	t.Helper()
	b, err := NewBlockIn(device.BaseLab(), 35, 1e-3, sleepFrac, 0.05) // 1 mm of logic width, 50 mA active
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBlockErrors(t *testing.T) {
	if _, err := NewBlockIn(device.BaseLab(), 35, 1e-3, 0, 1); err == nil {
		t.Fatalf("zero sleep fraction must error")
	}
	if _, err := NewBlockIn(device.BaseLab(), 35, 1e-3, 1.5, 1); err == nil {
		t.Fatalf("sleep fraction above 1 must error")
	}
	if _, err := NewBlockIn(device.BaseLab(), 65, 1e-3, 0.1, 1); err == nil {
		t.Fatalf("unknown node must error")
	}
}

func TestStandbySavings(t *testing.T) {
	b := block(t, 0.08)
	if b.StandbyLeakageW() >= b.ActiveLeakageW() {
		t.Fatalf("gating must cut leakage: %g vs %g", b.StandbyLeakageW(), b.ActiveLeakageW())
	}
	// MTCMOS "virtually eliminates" standby leakage: expect >95 %.
	if s := b.StandbySavings(); s < 0.95 {
		t.Fatalf("standby savings = %g, want >95%%", s)
	}
}

func TestDelayPenaltyVsFooterSize(t *testing.T) {
	small := block(t, 0.02)
	big := block(t, 0.20)
	if small.DelayPenalty() <= big.DelayPenalty() {
		t.Fatalf("a larger footer must cost less delay: %g vs %g",
			small.DelayPenalty(), big.DelayPenalty())
	}
	if big.DelayPenalty() <= 0 {
		t.Fatalf("the series footer always costs some delay")
	}
}

func TestDelayPenaltyInfiniteWhenHopeless(t *testing.T) {
	b := block(t, 0.001) // absurdly undersized footer
	if !math.IsInf(b.DelayPenalty(), 1) {
		t.Fatalf("a hopelessly undersized footer must flag infinite penalty, got %g", b.DelayPenalty())
	}
}

func TestSizeFooterForRoundTrip(t *testing.T) {
	b := block(t, 0.08)
	frac, err := b.SizeFooterFor(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if frac <= 0 {
		t.Fatalf("sizing returned %g", frac)
	}
	resized, err := NewBlockIn(device.BaseLab(), 35, b.LogicWidthM, frac, b.ActiveCurrentA)
	if err != nil {
		t.Fatal(err)
	}
	if got := resized.DelayPenalty(); !units.ApproxEqual(got, 0.05, 0.05, 0.002) {
		t.Fatalf("sized footer gives %.4f delay penalty, want ≈0.05", got)
	}
	if _, err := b.SizeFooterFor(0); err == nil {
		t.Fatalf("zero target must error")
	}
}

func TestWakeupEvent(t *testing.T) {
	b := block(t, 0.08)
	w := b.Wakeup()
	if w.PeakCurrentA <= 0 || w.RampS <= 0 {
		t.Fatalf("invalid wakeup event %+v", w)
	}
	if !units.ApproxEqual(w.ChargeC, b.VirtualRailCapF*b.Vdd, 1e-9, 0) {
		t.Fatalf("recharge charge must be C·Vdd")
	}
	// A bigger footer wakes faster but with a higher peak.
	bigger := block(t, 0.20)
	w2 := bigger.Wakeup()
	if w2.PeakCurrentA <= w.PeakCurrentA {
		t.Fatalf("bigger footer must surge harder")
	}
	if w2.RampS >= w.RampS {
		t.Fatalf("bigger footer must recharge faster")
	}
}

func TestAreaOverhead(t *testing.T) {
	b := block(t, 0.08)
	if !units.ApproxEqual(b.AreaOverhead(), 0.08, 1e-9, 0) {
		t.Fatalf("area overhead = %g, want the sleep fraction", b.AreaOverhead())
	}
}

func TestSleepDeviceIsHighVth(t *testing.T) {
	b := block(t, 0.08)
	if b.HighVth.Vth0 <= b.LowVth.Vth0 {
		t.Fatalf("the sleep transistor must sit at a higher threshold")
	}
}
