package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/itrs"
	"nanometer/internal/render"
	"nanometer/internal/repeater"
	"nanometer/internal/resize"
	"nanometer/internal/result"
	"nanometer/internal/units"
	"nanometer/internal/wire"
)

// --- C1: dynamic thermal management -------------------------------------------

func TestClaimDTM(t *testing.T) {
	c := findings(t, run(t, DTM))
	// The effective worst case lands near the paper's 75 %.
	if f := num(t, c, "effective_fraction"); f < 0.65 || f > 0.85 {
		t.Fatalf("effective worst case = %.0f%% of theoretical, paper says ≈75%%", f*100)
	}
	// θja headroom near the paper's 33 %.
	if h := num(t, c, "theta_ja_headroom"); h < 0.2 || h > 0.5 {
		t.Fatalf("θja headroom = %.0f%%, paper says 33%%", h*100)
	}
	// Cheaper cooling, materially.
	if r := num(t, c, "cooling_cost_ratio"); r < 1.5 {
		t.Fatalf("cooling cost ratio = %.1f, expected a substantial saving", r)
	}
	// The DTM-sized package survives the power virus within the junction
	// limit at graceful throughput.
	node := itrs.Base().MustNode(50)
	if p := num(t, c, "virus_peak_temp_c"); p > node.JunctionTempC+0.5 {
		t.Fatalf("virus peak %.1f °C exceeds the %g °C limit", p, node.JunctionTempC)
	}
	if th := num(t, c, "virus_throughput"); th < 0.5 || th >= 1 {
		t.Fatalf("virus throughput = %.2f, expected graceful degradation", th)
	}
	// The 65→75 W cost step is ≈3×.
	if r := num(t, c, "intel_65_to_75"); r < 2 || r > 4 {
		t.Fatalf("65→75 W cost step = %.1f×, paper says ~3×", r)
	}
}

// --- C2: global signaling ------------------------------------------------------

// cyclesPerCrossing is the optimally repeated die-edge wire delay at a
// node in global clock periods (global wires become multi-cycle).
func cyclesPerCrossing(t *testing.T, nm int) float64 {
	t.Helper()
	lab := device.BaseLab()
	drv, err := repeater.UnitDriverIn(lab, nm, units.CelsiusToKelvin(85))
	if err != nil {
		t.Fatal(err)
	}
	line, err := wire.ForNodeIn(lab.Table(), nm, wire.Global)
	if err != nil {
		t.Fatal(err)
	}
	length, err := wire.CrossChipLengthIn(lab.Table(), nm)
	if err != nil {
		t.Fatal(err)
	}
	return repeater.Optimize(drv, line, length).Delay * lab.MustNode(nm).ClockHz
}

func TestClaimSignaling(t *testing.T) {
	rows, err := signalingRows(device.BaseLab())
	if err != nil {
		t.Fatal(err)
	}
	byNode := map[int]signalingRow{}
	for _, r := range rows {
		byNode[r.nodeNM] = r
	}
	// Census anchors.
	if r := byNode[180]; r.repeaters < 5e3 || r.repeaters > 8e4 {
		t.Fatalf("180 nm repeaters = %d, paper says ~10⁴", r.repeaters)
	}
	if r := byNode[50]; r.repeaters < 3e5 || r.repeaters > 5e6 {
		t.Fatalf("50 nm repeaters = %d, paper says ~10⁶", r.repeaters)
	}
	if byNode[50].signalingPowerW < 50 {
		t.Fatalf("50 nm signaling power = %.0f W, paper says >50 W", byNode[50].signalingPowerW)
	}
	census, err := repeater.TakeCensusIn(device.BaseLab(), 50, repeater.CensusParams{})
	if err != nil {
		t.Fatal(err)
	}
	if d := census.ClusterPowerDensityWPerM2 / 1e4; d < 100 {
		t.Fatalf("50 nm repeater-cluster density = %.0f W/cm², footnote 2 says it can exceed 100", d)
	}
	for _, r := range rows {
		// Differential low swing at 10 % cuts energy to ≈20 % and slashes
		// di/dt; it costs under 2× the routing and closes noise.
		if r.diffEnergyRatio < 0.15 || r.diffEnergyRatio > 0.35 {
			t.Errorf("%d nm: diff energy ratio %.2f out of band", r.nodeNM, r.diffEnergyRatio)
		}
		if r.diffTrackRatio >= 2 {
			t.Errorf("%d nm: track ratio %.2f must stay below 2", r.nodeNM, r.diffTrackRatio)
		}
		if r.peakCurrentRatio > 0.2 {
			t.Errorf("%d nm: di/dt relief too weak (%.3f)", r.nodeNM, r.peakCurrentRatio)
		}
		if r.diffSNR <= 1 {
			t.Errorf("%d nm: differential link must close noise (SNR %.2f)", r.nodeNM, r.diffSNR)
		}
		if r.diffPowerW >= r.signalingPowerW {
			t.Errorf("%d nm: low-swing fabric must use less power", r.nodeNM)
		}
	}
	// Global crossings become multi-cycle in the nanometer regime.
	if c := cyclesPerCrossing(t, 50); c < 2 {
		t.Fatalf("50 nm cross-chip = %.1f cycles, the paper's premise is multi-cycle", c)
	}
	if cyclesPerCrossing(t, 180) >= cyclesPerCrossing(t, 50) {
		t.Fatalf("cycle count must grow with scaling")
	}
	// The [9] premise: unscaled top-level wiring keeps the die reachable in
	// a few cycles at ITRS clocks while scaled wiring collapses.
	for _, r := range rows {
		if r.unscaledCycles > r.scaledCycles+1e-9 {
			t.Errorf("%d nm: unscaled wiring must not be slower", r.nodeNM)
		}
	}
	if byNode[35].unscaledCycles > 4 {
		t.Fatalf("35 nm: unscaled wiring should cross the die in a few cycles, got %.1f", byNode[35].unscaledCycles)
	}
	if byNode[35].scaledCycles < 3*byNode[35].unscaledCycles {
		t.Fatalf("35 nm: scaled wiring should be far slower (%.1f vs %.1f cycles)",
			byNode[35].scaledCycles, byNode[35].unscaledCycles)
	}
}

// --- C3: library optimization ---------------------------------------------------

func TestClaimLibrary(t *testing.T) {
	c := findings(t, run(t, Library))
	if num(t, c, "n_libraries") != 3 {
		t.Fatalf("want coarse/rich/continuous")
	}
	for i := range 3 {
		if k := fmt.Sprintf("lib%d_", i); !flag(t, c, k+"timing_met") {
			f, _ := c.Find(k + "name")
			t.Fatalf("%s violates timing", f.Text)
		}
	}
	// On-the-fly cells vs the coarse legacy library: a large saving
	// (the [15] overdrive-waste argument).
	if s := num(t, c, "continuous_vs_coarse"); s < 0.15 {
		t.Fatalf("continuous vs coarse = %.0f%%, want ≥15%%", s*100)
	}
	// And a meaningful saving even over the rich library (the [17] claim
	// band is 15-22 %; our netlists land lower but must be positive).
	if s := num(t, c, "continuous_vs_rich"); s <= 0.02 {
		t.Fatalf("continuous vs rich = %.1f%%, expected a positive saving", s*100)
	}
}

// --- C4: clustered voltage scaling ----------------------------------------------

func TestClaimCVS(t *testing.T) {
	c := findings(t, run(t, CVS))
	// The slack-distribution premise: over half the paths below half the
	// cycle.
	if u := num(t, c, "path_utilization"); u < 0.5 {
		t.Fatalf("path utilization = %.0f%%, paper premise is >50%%", u*100)
	}
	if !flag(t, c, "clustered_timing_met") {
		t.Fatalf("clustered CVS violates timing")
	}
	assigned := num(t, c, "clustered_assigned_fraction")
	if assigned < 0.6 || assigned > 0.95 {
		t.Fatalf("assigned fraction = %.0f%%, paper says ~75%%", assigned*100)
	}
	if s := num(t, c, "clustered_dynamic_saving"); s < 0.25 {
		t.Fatalf("dynamic saving = %.0f%%, paper says 45-50%%", s*100)
	}
	if o := num(t, c, "clustered_lc_overhead"); o < 0.03 || o > 0.15 {
		t.Fatalf("LC overhead = %.1f%%, paper says 8-10%%", o*100)
	}
	if o := num(t, c, "clustered_area_overhead"); o < 0.05 || o > 0.35 {
		t.Fatalf("area overhead = %.0f%%, paper says ~15%%", o*100)
	}
	// Ablation: unclustered assigns at least as many gates but pays more
	// converters.
	if num(t, c, "unclustered_assigned_fraction") < assigned {
		t.Fatalf("unclustered fraction must not be lower")
	}
	if num(t, c, "unclustered_level_converters") <= num(t, c, "clustered_level_converters") {
		t.Fatalf("clustering must reduce converter count")
	}
}

// --- C5: dual-Vth ----------------------------------------------------------------

func TestClaimDualVth(t *testing.T) {
	c := findings(t, run(t, DualVth))
	if !flag(t, c, "sensitivity_timing_met") {
		t.Fatalf("dual-Vth violates timing")
	}
	if s := num(t, c, "sensitivity_leakage_saving"); s < 0.4 || s > 0.95 {
		t.Fatalf("leakage saving = %.0f%%, paper band is 40-80%%", s*100)
	}
	if p := num(t, c, "sensitivity_delay_penalty"); p > 0.02 {
		t.Fatalf("delay penalty = %.1f%%, paper says minimal", p*100)
	}
	if num(t, c, "slack_leakage_saving") < 0.3 {
		t.Fatalf("the slack-ordered ablation should still work")
	}
}

// --- C6: resize vs multi-Vdd ------------------------------------------------------

func TestClaimResizeVsVdd(t *testing.T) {
	c := findings(t, run(t, ResizeVsVdd))
	// The §3.3 argument: re-sizing returns sublinear power.
	if s := num(t, c, "resize_sublinearity"); s >= 0.9 {
		t.Fatalf("resize sublinearity = %.2f, must be well below 1", s)
	}
	// The combined flow beats both single techniques. The claim reports
	// resize's dynamic saving only; its total saving is resize.Downsize's
	// on the same netlist.
	base, err := buildCircuitIn(device.BaseLab(), DefaultCircuitSetup())
	if err != nil {
		t.Fatal(err)
	}
	rz, err := resize.Downsize(base, resize.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rz.DynamicSaving != num(t, c, "resize_dynamic_saving") {
		t.Fatalf("the stand-alone resize run is not the artifact's")
	}
	if combined := num(t, c, "combined_total_saving"); combined <= rz.PowerSaving {
		t.Fatalf("combined (%.2f) must beat resize alone (%.2f)", combined, rz.PowerSaving)
	}
	if !flag(t, c, "combined_timing_met") {
		t.Fatalf("combined flow violates timing")
	}
	// The ordering warning: re-sizing first starves CVS.
	if after, first := num(t, c, "assigned_after_resize"), num(t, c, "cvs_assigned_fraction"); after >= first {
		t.Fatalf("resize-then-CVS (%.0f%%) must reach fewer gates than CVS-first (%.0f%%)",
			after*100, first*100)
	}
}

// TestForkedPassesIndependentOfGOMAXPROCS: c3–c6 run their independent
// optimizer passes on goroutines of their own, each on its own clone, and
// join them in a fixed order, so their findings are byte for byte the same
// JSON on one core as on four.
func TestForkedPassesIndependentOfGOMAXPROCS(t *testing.T) {
	arts := []func(*device.Lab, int) (*result.Result, error){Library, CVS, DualVth, ResizeVsVdd}
	encodeAt := func(procs int) []string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out := make([]string, len(arts))
		for i, a := range arts {
			var b strings.Builder
			if err := (render.JSON{}).Encode(&b, run(t, a)); err != nil {
				t.Fatal(err)
			}
			out[i] = b.String()
		}
		return out
	}
	one, four := encodeAt(1), encodeAt(4)
	for i := range arts {
		if one[i] != four[i] {
			t.Errorf("c%d findings differ between GOMAXPROCS 1 and 4:\n%s\nvs\n%s", i+3, one[i], four[i])
		}
	}
}

// --- C7: the Vdd floor -------------------------------------------------------------

func TestClaimVddFloor(t *testing.T) {
	c := findings(t, run(t, VddFloor))
	if v := num(t, c, "vdd_floor"); v < 0.40 || v > 0.48 {
		t.Fatalf("Vdd floor = %.2f V, paper says ≈0.44 V", v)
	}
	if s := num(t, c, "dynamic_saving"); s < 0.40 || s > 0.52 {
		t.Fatalf("dynamic saving = %.0f%%, paper says 46%%", s*100)
	}
	// The 0.2 V headline point.
	if d := num(t, c, "at02_delay_norm"); d > 1.6 {
		t.Fatalf("0.2 V delay = %.2f×, paper says <1.3×", d)
	}
	if p := num(t, c, "at02_pdyn_norm"); p > 0.12 {
		t.Fatalf("0.2 V dynamic power = %.0f%% of nominal, paper says 11%%", p*100)
	}
}

// --- C8: bump plans -----------------------------------------------------------------

// TestMeshNSolvesTheSameMesh: every request MeshN folds together builds
// the identical mesh, so a compute key that hashes MeshN(n) can never
// merge two different results; a different MeshN is a different mesh.
func TestMeshNSolvesTheSameMesh(t *testing.T) {
	want, err := BumpMesh(device.BaseLab(), DefaultMeshN)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -3, 40} {
		if MeshN(n) != DefaultMeshN {
			t.Errorf("MeshN(%d) = %d, want %d", n, MeshN(n), DefaultMeshN)
		}
		m, err := BumpMesh(device.BaseLab(), n)
		if err != nil {
			t.Fatal(err)
		}
		if *m != *want {
			t.Errorf("mesh-n %d builds %+v, mesh-n %d builds %+v", n, *m, DefaultMeshN, *want)
		}
	}
	for _, n := range []int{4, 5, 43} {
		if MeshN(n) != n {
			t.Errorf("MeshN(%d) = %d, want %d unchanged", n, MeshN(n), n)
		}
	}
}

func TestClaimBumps(t *testing.T) {
	res, err := Bumps(device.BaseLab(), DefaultMeshN)
	if err != nil {
		t.Fatal(err)
	}
	c := findings(t, res)
	// The 356 µm effective pitch is reproduced exactly from the pad plan.
	if p := num(t, c, "effective_pitch_m"); p < 340e-6 || p > 375e-6 {
		t.Fatalf("effective pitch = %.0f µm, paper says 356 µm", p*1e6)
	}
	if p := num(t, c, "min_pitch_m"); p != 80e-6 {
		t.Fatalf("min pitch = %g, paper says 80 µm", p)
	}
	if itrsW, minW := num(t, c, "itrs_width_over_min"), num(t, c, "min_width_over_min"); itrsW < 30*minW {
		t.Fatalf("the ITRS plan (%.0f×) must dwarf the min-pitch plan (%.0f×)", itrsW, minW)
	}
	// The bump-current incompatibility: each Vdd bump must carry more than
	// it can (powergrid.BumpCurrentCheck's Compatible is the converse).
	if num(t, c, "per_bump_a") <= num(t, c, "capability_a") {
		t.Fatalf("the paper's point: the 35 nm bump plan cannot carry the supply current")
	}
	if num(t, c, "required_bumps") <= num(t, c, "vdd_bumps") {
		t.Fatalf("more Vdd bumps must be required")
	}
	// Numerical cross-checks.
	if r := num(t, c, "ladder_ratio"); r < 0.97 || r > 1.03 {
		t.Fatalf("ladder validation = %.3f, want ≈1", r)
	}
	if num(t, c, "pessimistic_ratio") < 1.5 {
		t.Fatalf("the all-top-metal mesh bound should exceed the budget")
	}
}

// --- C9: transients and MCML ---------------------------------------------------------

func TestClaimTransients(t *testing.T) {
	c := findings(t, run(t, Transients))
	// MTCMOS block behaviour.
	if s := num(t, c, "block_standby_savings"); s < 0.95 {
		t.Fatalf("MTCMOS standby savings = %.1f%%, expected near-elimination", s*100)
	}
	if p := num(t, c, "block_delay_penalty"); p > 0.05 {
		t.Fatalf("MTCMOS delay penalty = %.1f%%, expected small", p*100)
	}
	// The §4 close: the minimum bump pitch provides the low-inductance
	// path; the ITRS plan droops far more on the same wakeup.
	noiseMin, noiseITRS := num(t, c, "noise_min_pitch_fraction"), num(t, c, "noise_itrs_fraction")
	if noiseITRS <= noiseMin {
		t.Fatalf("the ITRS plan must droop more (%.1f%% vs %.1f%%)", noiseITRS*100, noiseMin*100)
	}
	if noiseMin > 0.10 {
		t.Fatalf("min-pitch droop = %.1f%%, should stay within the 10%% budget", noiseMin*100)
	}
	if noiseITRS < 0.10 {
		t.Fatalf("ITRS-plan droop = %.1f%%, should exceed the 10%% budget", noiseITRS*100)
	}
	if num(t, c, "max_instant_step_min_a") <= num(t, c, "max_instant_step_itrs_a") {
		t.Fatalf("the min-pitch plan must tolerate larger steps")
	}
	// MCML: tiny supply ripple; crossover exists.
	if r := num(t, c, "current_ripple_ratio"); r > 0.1 {
		t.Fatalf("MCML di/dt ratio = %.3f, expected ≪ 1", r)
	}
	if num(t, c, "crossover_activity") <= 0 {
		t.Fatalf("MCML crossover must be positive")
	}
}
