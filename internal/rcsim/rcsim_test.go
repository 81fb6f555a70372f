package rcsim

import (
	"fmt"
	"math"
	"testing"

	"nanometer/internal/itrs"
	"nanometer/internal/wire"
)

func line50nm(t testing.TB, length, rdrv, cload float64) *Line {
	w := mustGlobal(t, 50)
	return &Line{
		RPerM: w.RPerM(), CPerM: w.CPerM(),
		LengthM: length, Segments: 64,
		DriverOhms: rdrv, LoadF: cload,
	}
}

func TestValidate(t *testing.T) {
	bad := []*Line{
		{RPerM: 0, CPerM: 1, LengthM: 1},
		{RPerM: 1, CPerM: 1, LengthM: 0},
		{RPerM: 1, CPerM: 1, LengthM: 1, DriverOhms: -1},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad line %d accepted", i)
		}
	}
}

func TestLumpedRCAgainstClosedForm(t *testing.T) {
	// A driver-dominated line (negligible wire resistance) is a single RC:
	// the 50 % delay is ln(2)·R·C.
	l := &Line{
		RPerM: 1, CPerM: 1e-12, // 1 Ω/m: wire R irrelevant
		LengthM: 1e-3, Segments: 16,
		DriverOhms: 10e3, LoadF: 50e-15,
	}
	got, err := l.Delay50()
	if err != nil {
		t.Fatal(err)
	}
	ctot := l.CPerM*l.LengthM + l.LoadF
	want := math.Ln2 * l.DriverOhms * ctot
	if math.Abs(got-want)/want > 0.03 {
		t.Fatalf("lumped RC delay = %g, closed form %g", got, want)
	}
}

func TestIdealDriverMatchesElmoreFactor(t *testing.T) {
	// An ideally driven distributed line's 50 % delay is ≈0.38·R·C
	// (the factor the analytical layer uses everywhere).
	l := line50nm(t, 5e-3, 0, 0)
	got, err := l.Delay50()
	if err != nil {
		t.Fatal(err)
	}
	rc := l.RPerM * l.CPerM * l.LengthM * l.LengthM
	factor := got / rc
	if factor < 0.34 || factor > 0.42 {
		t.Fatalf("distributed 50%% factor = %.3f, want ≈0.38", factor)
	}
}

func TestDrivenDelayFormulaAccuracy(t *testing.T) {
	// The analytical DrivenDelay expression tracks the simulator within
	// ~15 % across driver/load regimes.
	w := mustGlobal(t, 50)
	cases := []struct{ len, rdrv, cload float64 }{
		{2e-3, 500, 5e-15},
		{5e-3, 1000, 20e-15},
		{10e-3, 200, 50e-15},
	}
	for _, cs := range cases {
		l := line50nm(t, cs.len, cs.rdrv, cs.cload)
		sim, err := l.Delay50()
		if err != nil {
			t.Fatal(err)
		}
		analytic := w.DrivenDelay(cs.len, cs.rdrv, cs.cload)
		ratio := analytic / sim
		if ratio < 0.85 || ratio > 1.25 {
			t.Fatalf("case %+v: analytic/simulated = %.3f", cs, ratio)
		}
	}
}

func TestLowThresholdCrossesEarly(t *testing.T) {
	// The signaling model's claim: a 10 %-of-final detection threshold is
	// reached in a small fraction of the 50 % time — quantitatively, the
	// dominant-pole model predicts t(10 %)/t(50 %) ≈ 0.09/0.38 ≈ 0.25.
	l := line50nm(t, 8e-3, 0, 0)
	ts, err := l.StepResponse([]float64{0.1, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !(ts[0] < ts[1] && ts[1] < ts[2]) {
		t.Fatalf("thresholds must cross in order: %v", ts)
	}
	ratio := ts[0] / ts[1]
	if ratio < 0.15 || ratio > 0.40 {
		t.Fatalf("t(10%%)/t(50%%) = %.3f, dominant pole predicts ≈0.25", ratio)
	}
}

func TestStepResponseErrors(t *testing.T) {
	l := line50nm(t, 1e-3, 100, 1e-15)
	if _, err := l.StepResponse([]float64{0.5, 0.2}); err == nil {
		t.Fatalf("non-ascending thresholds must error")
	}
	if _, err := l.StepResponse([]float64{1.5}); err == nil {
		t.Fatalf("threshold ≥ 1 must error")
	}
	if _, err := l.StepResponse([]float64{0}); err == nil {
		t.Fatalf("threshold ≤ 0 must error")
	}
}

func TestConvergenceWithRefinement(t *testing.T) {
	// Doubling the segment count moves the answer by little (the
	// discretization is converged at 64 segments).
	coarse := line50nm(t, 5e-3, 500, 10e-15)
	coarse.Segments = 32
	fine := line50nm(t, 5e-3, 500, 10e-15)
	fine.Segments = 128
	dc, err := coarse.Delay50()
	if err != nil {
		t.Fatal(err)
	}
	df, err := fine.Delay50()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dc-df)/df > 0.05 {
		t.Fatalf("discretization not converged: %g vs %g", dc, df)
	}
}

// referenceStepResponse is the historical implementation kept as the test
// oracle: it rebuilds and fully re-eliminates the tridiagonal system every
// step. The production path factors once and re-solves; the two must agree
// far below solver tolerance (the re-solve repeats the same arithmetic, so
// in practice they agree exactly).
func referenceStepResponse(l *Line, thresholds []float64) ([]float64, error) {
	n := l.Segments
	if n < 8 {
		n = 8
	}
	seg := l.LengthM / float64(n)
	rSeg := l.RPerM * seg
	cSeg := l.CPerM * seg
	caps := make([]float64, n+1)
	for i := range caps {
		caps[i] = cSeg
	}
	caps[0] = cSeg / 2
	caps[n] = cSeg/2 + l.LoadF
	tau := (l.DriverOhms + l.RPerM*l.LengthM) * (l.CPerM*l.LengthM + l.LoadF)
	dt := tau / 2000
	v := make([]float64, n+1)
	out := make([]float64, len(thresholds))
	gSeg := 1 / rSeg
	g0 := math.Inf(1)
	if l.DriverOhms > 0 {
		g0 = 1 / l.DriverOhms
	}
	a := make([]float64, n+1)
	b := make([]float64, n+1)
	cDiag := make([]float64, n+1)
	rhs := make([]float64, n+1)
	next := 0
	for step := 1; step <= 400000 && next < len(thresholds); step++ {
		for i := 0; i <= n; i++ {
			b[i] = caps[i] / dt
			a[i], cDiag[i] = 0, 0
			rhs[i] = caps[i] / dt * v[i]
			if i > 0 {
				b[i] += gSeg
				a[i] = -gSeg
			}
			if i < n {
				b[i] += gSeg
				cDiag[i] = -gSeg
			}
		}
		if math.IsInf(g0, 1) {
			b[0] = 1
			cDiag[0] = 0
			rhs[0] = 1
			rhs[1] -= a[1] * 1
			a[1] = 0
		} else {
			b[0] += g0
			rhs[0] += g0 * 1.0
		}
		// Full Thomas elimination, allocated and recomputed per step.
		cp := make([]float64, n+1)
		dp := make([]float64, n+1)
		cp[0] = cDiag[0] / b[0]
		dp[0] = rhs[0] / b[0]
		for i := 1; i <= n; i++ {
			m := b[i] - a[i]*cp[i-1]
			cp[i] = cDiag[i] / m
			dp[i] = (rhs[i] - a[i]*dp[i-1]) / m
		}
		v[n] = dp[n]
		for i := n - 1; i >= 0; i-- {
			v[i] = dp[i] - cp[i]*v[i+1]
		}
		t := float64(step) * dt
		for next < len(thresholds) && v[n] >= thresholds[next] {
			out[next] = t
			next++
		}
	}
	if next < len(thresholds) {
		return nil, fmt.Errorf("reference did not reach threshold %g", thresholds[next])
	}
	return out, nil
}

// TestFactoredSolveMatchesReference pins the factor-once optimization
// against the rebuild-every-step oracle across driver regimes (including
// the ideal-driver pinned-node path) to 1e-12 relative.
func TestFactoredSolveMatchesReference(t *testing.T) {
	thresholds := []float64{0.1, 0.5, 0.9}
	for _, drv := range []float64{0, 500, 2000} {
		for _, segs := range []int{16, 64} {
			l := &Line{
				RPerM: 1.5e5, CPerM: 2.1e-10,
				LengthM: 5e-3, Segments: segs,
				DriverOhms: drv, LoadF: 10e-15,
			}
			got, err := l.StepResponse(thresholds)
			if err != nil {
				t.Fatalf("drv=%g segs=%d: %v", drv, segs, err)
			}
			want, err := referenceStepResponse(l, thresholds)
			if err != nil {
				t.Fatalf("drv=%g segs=%d: %v", drv, segs, err)
			}
			for i := range got {
				if d := math.Abs(got[i]-want[i]) / want[i]; d > 1e-12 {
					t.Errorf("drv=%g segs=%d threshold %g: factored %g vs reference %g (rel %.3g)",
						drv, segs, thresholds[i], got[i], want[i], d)
				}
			}
		}
	}
}

// TestStepResponseAllocation pins the zero-allocations-per-step contract:
// total allocations for a whole simulation must stay at the small constant
// the setup needs, regardless of how many steps the integration runs. The
// historical implementation allocated two scratch slices per step (~2000
// for a 50 % crossing), which this bound catches immediately.
func TestStepResponseAllocation(t *testing.T) {
	l := line50nm(t, 5e-3, 500, 10e-15)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := l.StepResponse([]float64{0.9}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 25 {
		t.Fatalf("StepResponse allocated %.0f objects; want setup-only (≤ 25) — the per-step path must not allocate", allocs)
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
