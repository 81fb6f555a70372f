package experiments

import (
	"testing"

	"nanometer/internal/device"
)

// --- C10: intra-cell multi-Vth stacks ------------------------------------------

func TestClaimStackVth(t *testing.T) {
	r, err := RunStackVthIn(device.BaseLab(), 70)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Assignments) != 4 {
		t.Fatalf("2-stack exploration must give 4 assignments")
	}
	// The §3.3 claim: substantial savings at minimal delay — a single
	// high-Vth device within a 10 % delay budget.
	if r.Best.HighCount() != 1 {
		t.Fatalf("the 10%%-budget winner should mix exactly one high device, got %d", r.Best.HighCount())
	}
	if r.Best.LeakageSaving < 0.35 {
		t.Fatalf("mixed-stack saving = %.0f%%, expected substantial", r.Best.LeakageSaving*100)
	}
	if r.Best.DelayPenalty > 0.10 {
		t.Fatalf("delay penalty %.1f%% exceeds the minimal-budget constraint", r.Best.DelayPenalty*100)
	}
	// The stack effect itself.
	if r.StackFactor >= 0.5 || r.StackFactor <= 0 {
		t.Fatalf("stack factor = %.2f, expected the classic few-× reduction", r.StackFactor)
	}
	// State dependence: parking the idle vector wins without any sleep
	// transistor ("without additional sleep transistors that sacrifice
	// area and dynamic power").
	if r.ParkedSaving < 0.3 {
		t.Fatalf("input-vector parking saves %.0f%%, expected substantial", r.ParkedSaving*100)
	}
	// All-high saves the most but at roughly double the delay cost.
	allHigh := r.Assignments[3]
	if allHigh.LeakageSaving <= r.Best.LeakageSaving {
		t.Fatalf("all-high must save the most")
	}
	if allHigh.DelayPenalty <= 1.5*r.Best.DelayPenalty {
		t.Fatalf("all-high must cost substantially more delay")
	}
}

// --- C11: standby-technique comparison ------------------------------------------

func TestClaimStandby(t *testing.T) {
	r, err := RunStandbyIn(device.BaseLab())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.At35) != 5 || len(r.At180) != 5 {
		t.Fatalf("five techniques expected")
	}
	// The paper's scalability judgment: body bias is the casualty.
	non := r.NonScalableAt35()
	if len(non) != 1 || non[0] != "reverse body bias" {
		t.Fatalf("non-scalable set = %v, the paper singles out body bias", non)
	}
	// Its decay is monotone across the roadmap.
	for i := 1; i < len(r.BodyBiasTrend); i++ {
		if r.BodyBiasTrend[i].StandbyReduction >= r.BodyBiasTrend[i-1].StandbyReduction {
			t.Fatalf("body-bias benefit must decay monotonically")
		}
	}
	// Dual-Vth is the only technique that also reduces active leakage —
	// the paper's reason it is "the only technique used in current
	// high-end MPUs".
	activeHelpers := 0
	for _, res := range r.At35 {
		if res.ActiveReduction > 0 {
			activeHelpers++
		}
	}
	if activeHelpers != 1 {
		t.Fatalf("exactly one technique should help active mode, got %d", activeHelpers)
	}
}

// --- C12: tolerable-swing study --------------------------------------------------

func TestClaimSwingStudy(t *testing.T) {
	r, err := RunSwingStudyIn(device.BaseLab(), 50)
	if err != nil {
		t.Fatal(err)
	}
	// The study's findings: only the shielded differential environment
	// tolerates the Alpha-style 10 % swing; the minimum tolerable swing
	// there sits below 10 % with a large energy win.
	if !r.DiffShielded.Feasible || !r.DiffShielded.AlphaSwingOK {
		t.Fatalf("shielded differential must close at 10%% swing")
	}
	if r.DiffShielded.MinSwingFrac >= 0.10 {
		t.Fatalf("min tolerable swing %.3f should undercut the Alpha point", r.DiffShielded.MinSwingFrac)
	}
	if r.DiffShielded.EnergyRatioAtMin >= 0.25 {
		t.Fatalf("noise-limited swing energy ×%.2f, expected a large win", r.DiffShielded.EnergyRatioAtMin)
	}
	if r.DiffBare.AlphaSwingOK || r.SEShielded.AlphaSwingOK {
		t.Fatalf("10%% swing must fail without both differencing and shielding")
	}
	if r.SEBare.Feasible {
		t.Fatalf("unshielded single-ended must be infeasible — \"shielding may be insufficient\"")
	}
	// Ordering: each protection mechanism lowers the tolerable swing.
	if r.DiffShielded.MinSwingFrac >= r.DiffBare.MinSwingFrac {
		t.Fatalf("shielding must lower the differential tolerable swing")
	}
	if r.DiffBare.MinSwingFrac >= r.SEShielded.MinSwingFrac*2.5 {
		t.Fatalf("differential rejection should be the stronger lever")
	}
}

// --- C13: signaling-primitive planner ---------------------------------------------

func TestClaimBusPlan(t *testing.T) {
	r, err := RunBusPlanIn(device.BaseLab(), 50)
	if err != nil {
		t.Fatal(err)
	}
	// The latency-critical hops stay on repeaters; everything else adopts
	// reduced-swing primitives — the conclusion-#2 tool's whole point.
	if r.Repeated == 0 {
		t.Fatalf("latency-critical routes must keep repeaters")
	}
	if r.LowSwing+r.Differential == 0 {
		t.Fatalf("relaxed routes must adopt low-swing primitives")
	}
	if r.Plan.Saving < 0.4 {
		t.Fatalf("plan saving = %.0f%%, expected a large win over all-repeated", r.Plan.Saving*100)
	}
	for _, c := range r.Plan.Choices {
		if c.DelayS > c.Route.LatencyBudgetS {
			t.Fatalf("route %s misses its latency budget", c.Route.Name)
		}
	}
}
