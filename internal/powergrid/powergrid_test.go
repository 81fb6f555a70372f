package powergrid

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"nanometer/internal/itrs"
	"nanometer/internal/units"
)

func spec35(pitch float64) GridSpec {
	return DefaultSpec(itrs.Base().MustNode(35), pitch)
}

func TestSizeRailsCubicInPitch(t *testing.T) {
	// The analytic model: W ∝ P³ at fixed everything else.
	f := func(seed uint8) bool {
		p := 50e-6 * (1 + float64(seed)/32)
		a, err1 := spec35(p).SizeRails()
		b, err2 := spec35(2 * p).SizeRails()
		if err1 != nil || err2 != nil {
			return false
		}
		return units.ApproxEqual(b.RailWidthM, 8*a.RailWidthM, 1e-9, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSizeRailsPaperAnchors(t *testing.T) {
	node := itrs.Base().MustNode(35)
	sz, err := spec35(node.BumpPitchMinM).SizeRails()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 16× the minimum width, rails < 4 % of routing, ≈20 % total.
	if sz.WidthOverMin < 10 || sz.WidthOverMin > 22 {
		t.Fatalf("35 nm min-pitch rail width = %.1f × Wmin, paper says 16×", sz.WidthOverMin)
	}
	if sz.RailRoutingFraction > 0.05 {
		t.Fatalf("rail routing share = %.3f, paper says <4%%", sz.RailRoutingFraction)
	}
	if sz.TotalRoutingFraction < 0.17 || sz.TotalRoutingFraction > 0.22 {
		t.Fatalf("total routing share = %.3f, paper says 17-20%%", sz.TotalRoutingFraction)
	}
	// ITRS-plan pitch blows the width up by ~(356/80)³ ≈ 88×.
	szITRS, err := spec35(node.EffectiveBumpPitchM()).SizeRails()
	if err != nil {
		t.Fatal(err)
	}
	ratio := szITRS.WidthOverMin / sz.WidthOverMin
	if ratio < 60 || ratio > 120 {
		t.Fatalf("ITRS/min width ratio = %.0f, want ≈88 (cubic in pitch)", ratio)
	}
	if szITRS.WidthOverMin < 500 {
		t.Fatalf("ITRS-plan rail width = %.0f × Wmin, paper says >2000× (order of magnitude)", szITRS.WidthOverMin)
	}
}

func TestSizeRailsErrors(t *testing.T) {
	if _, err := spec35(0).SizeRails(); err == nil {
		t.Fatalf("zero pitch must error")
	}
	s := spec35(80e-6)
	s.IRBudgetFraction = 0
	if _, err := s.SizeRails(); err == nil {
		t.Fatalf("zero budget must error")
	}
	s.IRBudgetFraction = 1.5
	if _, err := s.SizeRails(); err == nil {
		t.Fatalf("budget ≥ 1 must error")
	}
}

func TestTighterBudgetWidensRails(t *testing.T) {
	a := spec35(80e-6)
	b := spec35(80e-6)
	b.IRBudgetFraction = 0.05
	sa, _ := a.SizeRails()
	sb, _ := b.SizeRails()
	if sb.RailWidthM <= sa.RailWidthM {
		t.Fatalf("halving the budget must widen the rails")
	}
	if !units.ApproxEqual(sb.RailWidthM, 2*sa.RailWidthM, 1e-9, 0) {
		t.Fatalf("width must be inverse in budget")
	}
}

func TestHotspotScalesWidth(t *testing.T) {
	uniform := spec35(80e-6)
	uniform.HotspotFactor = 1
	hot := spec35(80e-6)
	su, _ := uniform.SizeRails()
	sh, _ := hot.SizeRails()
	if !units.ApproxEqual(sh.RailWidthM, 4*su.RailWidthM, 1e-9, 0) {
		t.Fatalf("4× hot spot must need 4× rails")
	}
}

func TestFeasibleRails(t *testing.T) {
	node := itrs.Base().MustNode(35)
	_, okMin, err := spec35(node.BumpPitchMinM).FeasibleRails()
	if err != nil || !okMin {
		t.Fatalf("min-pitch plan must be feasible (%v)", err)
	}
	// An extreme pitch makes the rails outgrow the pitch itself.
	_, okHuge, err := spec35(1.5e-3).FeasibleRails()
	if err != nil {
		t.Fatal(err)
	}
	if okHuge {
		t.Fatalf("a 1.5 mm bump pitch cannot fit its rails")
	}
}

func TestLadderValidatesAnalytic(t *testing.T) {
	// The 1-D ladder solve must converge to the closed form from below.
	s := spec35(80e-6)
	ratio, err := ValidateAnalytic(s, 512)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ratio-1) > 0.02 {
		t.Fatalf("ladder/analytic = %g, want ≈1", ratio)
	}
	coarse, err := ValidateAnalytic(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if coarse > 1.0+1e-9 {
		t.Fatalf("discretized ladder must not exceed the continuum bound, got %g", coarse)
	}
}

func TestMeshPessimisticBound(t *testing.T) {
	// Forcing the lower-grid current through the top-level sheet must show
	// substantially more drop than the rail budget.
	ratio, err := PessimisticRatio(spec35(80e-6), 31)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 2 || ratio > 20 {
		t.Fatalf("pessimistic mesh ratio = %g, expected several × the budget", ratio)
	}
}

func TestMeshErrors(t *testing.T) {
	if _, err := NewMesh(spec35(80e-6), 0, 80e-6, 11); err == nil {
		t.Fatalf("zero rail width must error")
	}
	if _, err := NewLadder(spec35(80e-6), 0, 16); err == nil {
		t.Fatalf("zero rail width must error")
	}
}

// TestUnitDropTableBounded: a scan across every mesh size a client may
// ask for (the shape of a hostile mesh-n scan through the daemon) keeps at
// most one float per size. The table is a fixed array, every size
// validMeshN admits has its own cell inside it, and the whole table stays
// small.
func TestUnitDropTableBounded(t *testing.T) {
	seen := make(map[int]bool)
	for n := -1; n <= MaxMeshN+2; n++ {
		if !validMeshN(n) {
			continue
		}
		i := (n - MinMeshN) / 2
		if i < 0 || i >= len(unitDrops) || seen[i] {
			t.Fatalf("n = %d maps to cell %d (table has %d, seen before: %v)", n, i, len(unitDrops), seen[i])
		}
		seen[i] = true
	}
	if len(seen) != len(unitDrops) {
		t.Errorf("%d admissible sizes for %d cells", len(seen), len(unitDrops))
	}
	if size := unsafe.Sizeof(unitDrops); size > 32<<10 {
		t.Errorf("unit table takes %d bytes, want ≤ 32 KiB", size)
	}
}

// TestMeshDimensionLimits: nonsense dimensions are rejected in the model
// layer itself, not only at the CLI/HTTP boundaries — the serving layer
// passes untrusted values down here.
func TestMeshDimensionLimits(t *testing.T) {
	sz, err := spec35(80e-6).SizeRails()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-5, -1, 0, 1, 2, 4} {
		if _, err := NewMesh(spec35(80e-6), sz.RailWidthM, 80e-6, n); err == nil {
			t.Errorf("NewMesh(n=%d) must error", n)
		}
	}
	for _, n := range []int{MaxMeshN + 1, 1 << 20} {
		if _, err := NewMesh(spec35(80e-6), sz.RailWidthM, 80e-6, n); err == nil {
			t.Errorf("NewMesh(n=%d) must error", n)
		}
	}
	// Even dimensions stay accepted (bumped to odd) and in-range odd ones
	// solve.
	m, err := NewMesh(spec35(80e-6), sz.RailWidthM, 80e-6, 10)
	if err != nil {
		t.Fatalf("NewMesh(n=10): %v", err)
	}
	if m.N != 11 {
		t.Errorf("even dimension should round up to 11, got %d", m.N)
	}
	if _, err := m.Solve(); err != nil {
		t.Errorf("solve at n=11: %v", err)
	}
}

func TestCheckBumpCurrentAt35(t *testing.T) {
	chk := CheckBumpCurrent(itrs.Base().MustNode(35))
	if chk.Compatible {
		t.Fatalf("the paper's point: 1500 Vdd bumps cannot carry ~300 A")
	}
	if chk.PerBumpA <= chk.CapabilityA {
		t.Fatalf("per-bump current %g should exceed capability %g", chk.PerBumpA, chk.CapabilityA)
	}
	if chk.RequiredBumps <= chk.VddBumps {
		t.Fatalf("more bumps must be required")
	}
	// At 180 nm the plan closes.
	chk180 := CheckBumpCurrent(itrs.Base().MustNode(180))
	if !chk180.Compatible {
		t.Fatalf("the 180 nm bump plan should be adequate")
	}
}

func TestTransientBounds(t *testing.T) {
	spec := DefaultTransientSpec(itrs.Base().MustNode(35))
	// A very slow ramp is governed by the inductive bound, a fast step by
	// the impedance bound.
	slow, err := spec.Step(30, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if slow.NoiseV != slow.InductiveNoiseV {
		t.Fatalf("slow ramp must be inductor-limited")
	}
	fast, err := spec.Step(30, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if fast.NoiseV != fast.ImpedanceNoiseV {
		t.Fatalf("fast step must be impedance-limited")
	}
	if fast.NoiseV <= slow.NoiseV {
		t.Fatalf("faster steps must droop more")
	}
}

func TestTransientMoreBumpsLessNoise(t *testing.T) {
	node := itrs.Base().MustNode(35)
	few := DefaultTransientSpec(node)
	many := DefaultTransientSpec(node)
	many.PowerBumps = node.PowerBumps() * 20
	nFew, _ := few.Step(30, 1e-12)
	nMany, _ := many.Step(30, 1e-12)
	if nMany.NoiseV >= nFew.NoiseV {
		t.Fatalf("more bumps must reduce droop: %g vs %g", nMany.NoiseV, nFew.NoiseV)
	}
}

func TestMinSafeRampConsistent(t *testing.T) {
	spec := DefaultTransientSpec(itrs.Base().MustNode(35))
	deltaI := 2 * spec.MaxStepA(0.10) // needs staging
	ramp, err := spec.MinSafeRampS(deltaI, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if ramp <= 0 {
		t.Fatalf("an over-budget step needs a positive ramp")
	}
	res, err := spec.Step(deltaI, ramp)
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(res.NoiseFraction, 0.10, 1e-6, 0) {
		t.Fatalf("at the safe ramp the droop = %g, want exactly the budget", res.NoiseFraction)
	}
	// A step inside the impedance bound needs no staging.
	small := spec.MaxStepA(0.10) / 2
	ramp, err = spec.MinSafeRampS(small, 0.10)
	if err != nil || ramp != 0 {
		t.Fatalf("in-budget step should need no staging (%g, %v)", ramp, err)
	}
}

func TestTransientErrors(t *testing.T) {
	spec := DefaultTransientSpec(itrs.Base().MustNode(35))
	if _, err := spec.Step(0, 1e-9); err == nil {
		t.Fatalf("zero step must error")
	}
	if _, err := spec.Step(10, 0); err == nil {
		t.Fatalf("zero ramp must error")
	}
	if _, err := spec.MinSafeRampS(0, 0.1); err == nil {
		t.Fatalf("zero step must error")
	}
}
