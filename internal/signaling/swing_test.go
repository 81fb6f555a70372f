package signaling

import (
	"testing"

	"nanometer/internal/itrs"
)

func TestMinTolerableSwingOrdering(t *testing.T) {
	line := mustGlobal(t, 35)
	const vdd = 0.6
	const snr = 2.0
	// Differential (common-mode rejection) tolerates a smaller swing than
	// single-ended, and shielding lowers both.
	diffSh, err := MinTolerableSwing(line, vdd, DifferentialLowSwing, true, snr)
	if err != nil {
		t.Fatal(err)
	}
	seSh, err := MinTolerableSwing(line, vdd, LowSwing, true, snr)
	if err != nil {
		t.Fatal(err)
	}
	if diffSh >= seSh {
		t.Fatalf("differential must tolerate a smaller swing: %g vs %g", diffSh, seSh)
	}
	diffBare, err := MinTolerableSwing(line, vdd, DifferentialLowSwing, false, snr)
	if err != nil {
		t.Fatal(err)
	}
	if diffSh >= diffBare {
		t.Fatalf("shielding must lower the tolerable swing: %g vs %g", diffSh, diffBare)
	}
	// Full swing trivially closes.
	if fs, err := MinTolerableSwing(line, vdd, FullSwingRepeated, false, snr); err != nil || fs != 1 {
		t.Fatalf("full swing: %g, %v", fs, err)
	}
}

func TestMinTolerableSwingInfeasible(t *testing.T) {
	line := mustGlobal(t, 35)
	// An absurd SNR target on an unshielded single-ended line cannot close.
	if _, err := MinTolerableSwing(line, 0.6, LowSwing, false, 50); err == nil {
		t.Fatalf("impossible target must error")
	}
	if _, err := MinTolerableSwing(line, 0.6, LowSwing, true, 0); err == nil {
		t.Fatalf("non-positive SNR must error")
	}
}

func TestStudySwingAlphaDesignPoint(t *testing.T) {
	// The study the paper calls for: is the Alpha's 10 % swing tolerable?
	// On a shielded differential bus it is; unshielded single-ended it is
	// not.
	line := mustGlobal(t, 50)
	node := itrs.Base().MustNode(50)
	stDiff, err := StudySwing(line, 6e-3, node.Vdd, DifferentialLowSwing, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !stDiff.AlphaSwingOK {
		t.Fatalf("the Alpha-style shielded differential 10%% swing should close at SNR 2 (min %.3f)",
			stDiff.MinSwingFrac)
	}
	if stDiff.MinSwingFrac > 0.10 {
		t.Fatalf("min tolerable swing %.3f exceeds the Alpha point", stDiff.MinSwingFrac)
	}
	// Energy at the minimum tolerable swing undercuts the 10 % design.
	if stDiff.EnergyRatioAtMin >= 0.25 {
		t.Fatalf("energy at the noise-limited swing = %.2f of full swing, expected below the 10%% design", stDiff.EnergyRatioAtMin)
	}
	stSE, err := StudySwing(line, 6e-3, node.Vdd, LowSwing, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stSE.AlphaSwingOK {
		t.Fatalf("unshielded single-ended 10%% swing should fail the same target")
	}
	if stSE.Feasible {
		t.Fatalf("no single-ended unshielded swing should close SNR 2 in this coupling environment")
	}
	if !stDiff.Feasible {
		t.Fatalf("the shielded differential study must be feasible")
	}
}

func TestStudySwingAcrossNodes(t *testing.T) {
	// The tolerable swing is set by the coupling fraction, which we hold
	// constant across nodes — the study should be stable on every node.
	for _, nm := range itrs.Base().NodesNM() {
		node := itrs.Base().MustNode(nm)
		st, err := StudySwing(mustGlobal(t, nm), 5e-3, node.Vdd, DifferentialLowSwing, true, 2)
		if err != nil {
			t.Fatalf("%d nm: %v", nm, err)
		}
		if st.MinSwingFrac <= 0 || st.MinSwingFrac > 0.2 {
			t.Errorf("%d nm: min swing %.3f out of the expected band", nm, st.MinSwingFrac)
		}
	}
}
