package standby

import (
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/itrs"
)

const blockWidth = 1e-3 // 1 mm of gated NMOS width

func TestCompareAllTechniques(t *testing.T) {
	rows, err := CompareIn(device.BaseLab(), 35, blockWidth)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Techniques()) {
		t.Fatalf("got %d rows, want %d", len(rows), len(Techniques()))
	}
	for _, r := range rows {
		if r.StandbyReduction <= 0 || r.StandbyReduction >= 1 {
			t.Errorf("%v: standby reduction %g out of (0,1)", r.Technique, r.StandbyReduction)
		}
		if r.Notes == "" {
			t.Errorf("%v: missing mechanism note", r.Technique)
		}
	}
}

func TestMTCMOSEliminatesStandbyLeakage(t *testing.T) {
	r, err := EvaluateIn(device.BaseLab(), MTCMOSGating, 35, blockWidth)
	if err != nil {
		t.Fatal(err)
	}
	if r.StandbyReduction < 0.95 {
		t.Fatalf("MTCMOS standby reduction = %g, the paper says it virtually eliminates leakage", r.StandbyReduction)
	}
	if r.DelayPenalty <= 0 || r.AreaOverhead <= 0 {
		t.Fatalf("MTCMOS must pay delay and area: %+v", r)
	}
	if r.ActiveReduction != 0 {
		t.Fatalf("MTCMOS gives no active-mode reduction")
	}
	if !r.Scalable {
		t.Fatalf("sleep transistors remain effective with scaling")
	}
}

func TestBodyBiasLosesEffectivenessWithScaling(t *testing.T) {
	// The paper: "body bias is less effective at controlling Vth in scaled
	// devices".
	trend, err := ScalingTrendIn(device.BaseLab(), ReverseBodyBias, blockWidth)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(trend); i++ {
		if trend[i].StandbyReduction >= trend[i-1].StandbyReduction {
			t.Fatalf("body-bias benefit must decay with scaling: %d nm %g vs %d nm %g",
				trend[i].NodeNM, trend[i].StandbyReduction,
				trend[i-1].NodeNM, trend[i-1].StandbyReduction)
		}
	}
	first, last := trend[0], trend[len(trend)-1]
	if first.StandbyReduction < 0.9 {
		t.Fatalf("body bias should work well at 180 nm (%g)", first.StandbyReduction)
	}
	if last.Scalable {
		t.Fatalf("body bias must be flagged non-scalable at 35 nm (reduction %g)", last.StandbyReduction)
	}
}

func TestOtherTechniquesRemainScalable(t *testing.T) {
	for _, tech := range []Technique{MTCMOSGating, NegativeGateDrive, InputVectorControl, DualVthStatic} {
		r, err := EvaluateIn(device.BaseLab(), tech, 35, blockWidth)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Scalable {
			t.Errorf("%v should remain scalable at 35 nm (reduction %g)", tech, r.StandbyReduction)
		}
	}
}

func TestDualVthIsTheOnlyActiveModeTechnique(t *testing.T) {
	rows, err := CompareIn(device.BaseLab(), 35, blockWidth)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Technique == DualVthStatic {
			if r.ActiveReduction <= 0 {
				t.Fatalf("dual-Vth must reduce active leakage too")
			}
			continue
		}
		if r.ActiveReduction != 0 {
			t.Errorf("%v should only help in standby (the paper's criticism)", r.Technique)
		}
	}
}

func TestNegativeGateDriveIsSwingExact(t *testing.T) {
	// 150 mV of underdrive on a 101 mV/decade swing (85 °C) cuts leakage
	// by 10^(−0.15/S).
	r, err := EvaluateIn(device.BaseLab(), NegativeGateDrive, 50, blockWidth)
	if err != nil {
		t.Fatal(err)
	}
	if r.StandbyReduction < 0.95 || r.StandbyReduction > 0.98 {
		t.Fatalf("negative gate drive reduction = %g, want ≈0.967", r.StandbyReduction)
	}
}

func TestEvaluateUnknowns(t *testing.T) {
	if _, err := EvaluateIn(device.BaseLab(), Technique(99), 35, blockWidth); err == nil {
		t.Fatalf("unknown technique must error")
	}
	if _, err := EvaluateIn(device.BaseLab(), MTCMOSGating, 65, blockWidth); err == nil {
		t.Fatalf("unknown node must error")
	}
}

func TestScalingTrendCoversRoadmap(t *testing.T) {
	trend, err := ScalingTrendIn(device.BaseLab(), MTCMOSGating, blockWidth)
	if err != nil {
		t.Fatal(err)
	}
	if len(trend) != len(itrs.Base().NodesNM()) {
		t.Fatalf("trend covers %d nodes, want %d", len(trend), len(itrs.Base().NodesNM()))
	}
}
