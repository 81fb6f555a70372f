package stackvth

import (
	"math"
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/units"
)

func twoStack(t *testing.T, vths []float64) *Stack {
	t.Helper()
	d := device.BaseLab().MustForNode(70)
	st, err := NewStackIn(device.BaseLab(), 70, len(vths), 4*d.LeffM, vths)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestNewStackErrors(t *testing.T) {
	if _, err := NewStackIn(device.BaseLab(), 70, 0, 1e-7, nil); err == nil {
		t.Fatalf("empty stack must error")
	}
	if _, err := NewStackIn(device.BaseLab(), 70, 2, 1e-7, []float64{0.1}); err == nil {
		t.Fatalf("threshold-count mismatch must error")
	}
	if _, err := NewStackIn(device.BaseLab(), 65, 1, 1e-7, []float64{0.1}); err == nil {
		t.Fatalf("unknown node must error")
	}
}

func TestStackEffect(t *testing.T) {
	d := device.BaseLab().MustForNode(70)
	st := twoStack(t, []float64{d.Vth0, d.Vth0})
	// A single off device (the other on) leaks like a bare transistor;
	// both off (stack) leaks several times less.
	bothOff, err := st.LeakageForState([]bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	topOff, err := st.LeakageForState([]bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if bothOff >= topOff {
		t.Fatalf("the stack effect must hold: both-off %g ≥ single-off %g", bothOff, topOff)
	}
	if factor := bothOff / topOff; factor > 0.5 || factor < 0.02 {
		t.Fatalf("stack factor = %g, expected the classic few-× reduction", factor)
	}
	// The single-off case matches the bare Eq.-4 device within the
	// drain-saturation factor.
	bare := d.IoffPerWidth(st.Vdd, st.TemperatureK) * st.WidthM
	if !units.ApproxEqual(topOff, bare, 0.05, 0) {
		t.Fatalf("single-off leakage %g vs bare device %g", topOff, bare)
	}
}

func TestAllOnLeaksZeroPullDown(t *testing.T) {
	d := device.BaseLab().MustForNode(70)
	st := twoStack(t, []float64{d.Vth0, d.Vth0})
	l, err := st.LeakageForState([]bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	if l != 0 {
		t.Fatalf("a conducting stack has no pull-down leakage path, got %g", l)
	}
}

func TestLeakageForStateErrors(t *testing.T) {
	d := device.BaseLab().MustForNode(70)
	st := twoStack(t, []float64{d.Vth0, d.Vth0})
	if _, err := st.LeakageForState([]bool{false}); err == nil {
		t.Fatalf("input-count mismatch must error")
	}
}

func TestMinLeakageVectorIsAllOff(t *testing.T) {
	d := device.BaseLab().MustForNode(70)
	st := twoStack(t, []float64{d.Vth0, d.Vth0})
	vec, best, err := st.MinLeakageVector()
	if err != nil {
		t.Fatal(err)
	}
	for _, on := range vec {
		if on {
			t.Fatalf("for a uniform stack the all-off vector maximizes the stack effect, got %v", vec)
		}
	}
	avg, err := st.AverageLeakage()
	if err != nil {
		t.Fatal(err)
	}
	if best >= avg {
		t.Fatalf("the parked state (%g) must beat the average (%g)", best, avg)
	}
}

func TestHighVthPositionMatters(t *testing.T) {
	d := device.BaseLab().MustForNode(70)
	lo, hi := d.Vth0, d.Vth0+0.1
	bottomHigh := twoStack(t, []float64{hi, lo})
	topHigh := twoStack(t, []float64{lo, hi})
	lBottom, err := bottomHigh.AverageLeakage()
	if err != nil {
		t.Fatal(err)
	}
	lTop, err := topHigh.AverageLeakage()
	if err != nil {
		t.Fatal(err)
	}
	// Either position cuts leakage vs all-low; they need not be equal.
	allLow := twoStack(t, []float64{lo, lo})
	ref, err := allLow.AverageLeakage()
	if err != nil {
		t.Fatal(err)
	}
	if lBottom >= ref || lTop >= ref {
		t.Fatalf("a single high-Vth device must cut average leakage: %g, %g vs %g", lBottom, lTop, ref)
	}
}

func TestDelayMonotoneInVthAndStackHeight(t *testing.T) {
	d := device.BaseLab().MustForNode(70)
	lo, hi := d.Vth0, d.Vth0+0.1
	load := 5e-15
	allLow := twoStack(t, []float64{lo, lo})
	mixed := twoStack(t, []float64{hi, lo})
	allHigh := twoStack(t, []float64{hi, hi})
	if !(allLow.Delay(load) < mixed.Delay(load) && mixed.Delay(load) < allHigh.Delay(load)) {
		t.Fatalf("delay must grow with high-Vth count")
	}
	three := twoStack(t, []float64{lo, lo, lo})
	if three.Delay(load) <= allLow.Delay(load) {
		t.Fatalf("a taller stack must be slower")
	}
}

func TestExploreHeadline(t *testing.T) {
	// The §3.3 claim: mixed stacks give "fairly substantial leakage
	// savings with minimal delay penalties".
	d := device.BaseLab().MustForNode(70)
	as, err := ExploreIn(device.BaseLab(), 70, 2, 4*d.LeffM, d.Vth0, d.Vth0+0.1, 5e-15)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 4 {
		t.Fatalf("2-stack explore must produce 4 assignments")
	}
	best, err := BestUnderPenalty(as, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if best.HighCount() != 1 {
		t.Fatalf("within 10%% delay the winner should be a single-high mix, got %d high", best.HighCount())
	}
	if best.LeakageSaving < 0.35 {
		t.Fatalf("single-high saving = %g, expected substantial (≳40%%)", best.LeakageSaving)
	}
	if best.DelayPenalty > 0.10 {
		t.Fatalf("penalty %g exceeds the constraint", best.DelayPenalty)
	}
	// The all-high corner saves the most but pays about double the delay
	// penalty.
	allHigh := as[len(as)-1]
	if allHigh.LeakageSaving <= best.LeakageSaving {
		t.Fatalf("all-high must save the most")
	}
	if allHigh.DelayPenalty <= best.DelayPenalty*1.5 {
		t.Fatalf("all-high must cost substantially more delay")
	}
}

func TestBestUnderPenaltyInfeasible(t *testing.T) {
	d := device.BaseLab().MustForNode(70)
	as, err := ExploreIn(device.BaseLab(), 70, 2, 4*d.LeffM, d.Vth0, d.Vth0+0.1, 5e-15)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BestUnderPenalty(as, -1); err == nil {
		t.Fatalf("impossible penalty budget must error")
	}
}

func TestExploreErrors(t *testing.T) {
	if _, err := ExploreIn(device.BaseLab(), 70, 2, 1e-7, 0.3, 0.2, 1e-15); err == nil {
		t.Fatalf("inverted threshold pair must error")
	}
}

func TestLeakageScalesWithWidth(t *testing.T) {
	d := device.BaseLab().MustForNode(70)
	narrow, err := NewStackIn(device.BaseLab(), 70, 2, 2*d.LeffM, []float64{d.Vth0, d.Vth0})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewStackIn(device.BaseLab(), 70, 2, 4*d.LeffM, []float64{d.Vth0, d.Vth0})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := narrow.AverageLeakage()
	if err != nil {
		t.Fatal(err)
	}
	lw, err := wide.AverageLeakage()
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(lw, 2*ln, 0.02, 0) {
		t.Fatalf("leakage must scale with width: %g vs 2×%g", lw, ln)
	}
}

func TestTallerStacksLeakLess(t *testing.T) {
	d := device.BaseLab().MustForNode(70)
	two := twoStack(t, []float64{d.Vth0, d.Vth0})
	three := twoStack(t, []float64{d.Vth0, d.Vth0, d.Vth0})
	l2, err := two.LeakageForState([]bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	l3, err := three.LeakageForState([]bool{false, false, false})
	if err != nil {
		t.Fatal(err)
	}
	if l3 >= l2 {
		t.Fatalf("a taller all-off stack must leak less: %g vs %g", l3, l2)
	}
	if math.IsNaN(l3) {
		t.Fatalf("solver returned NaN")
	}
}
