package experiments

import (
	"nanometer/internal/core"
	"nanometer/internal/device"
	"nanometer/internal/gate"
	"nanometer/internal/mcml"
	"nanometer/internal/mtcmos"
	"nanometer/internal/powergrid"
	"nanometer/internal/result"
	"nanometer/internal/units"
)

// VddFloor is the C7 experiment: the lowest supply the ITRS
// Pdyn ≥ 10·Pstatic constraint permits under the constant-Pstatic policy at
// 35 nm, and the dynamic-power saving it buys (paper: ≈0.44 V, 46 %), plus
// the headline Figure 3 point: delay and power at Vdd = 0.2 V under the
// same policy.
func VddFloor(lab *device.Lab, _ int) (*result.Result, error) {
	node := lab.MustNode(35)
	ex, err := core.NewExplorerIn(lab, 35, units.RoomTemperature, 0.1, node.ClockHz)
	if err != nil {
		return nil, err
	}
	v, s, err := ex.VddFloor(core.ConstantPstatic, 10)
	if err != nil {
		return nil, err
	}
	at02, err := ex.At(core.ConstantPstatic, 0.2)
	if err != nil {
		return nil, err
	}
	c := &result.Claim{}
	c.Num("vdd_floor", v, "V").
		Num("dynamic_saving", s, "").
		Num("at02_delay_norm", at02.DelayNorm, "").
		Num("at02_pdyn_norm", at02.PdynNorm, "").
		Num("at02_vth", at02.Vth, "V")
	res := &result.Result{}
	res.AddClaim(c)
	return res, nil
}

// DefaultMeshN is the 2-D mesh discretization the C8 analysis uses unless
// Bumps is given another. It is a fixed convention, not a converged value:
// the smeared-mesh bound (pessimistic_ratio) grows without limit as the
// mesh is refined, because the mesh pins each bump as one node. It reads
// 5.84 at n = 41, 7.13 at 129, 7.95 at 255, 8.81 at 511 and 9.67 at 1023,
// about 0.86 more per doubling of n from n = 255, so the report's bound
// holds at this n only.
const DefaultMeshN = 41

// MeshN returns the mesh dimension the C8 analysis solves when asked for
// n: n ≤ 0 selects DefaultMeshN, and an even n ≥ powergrid.MinMeshN
// becomes n+1, the odd grid powergrid.NewMesh builds for it. Requests
// that map to one value solve the same mesh, so the compute-cache key
// hashes this value rather than the raw request.
func MeshN(n int) int {
	switch {
	case n <= 0:
		return DefaultMeshN
	case n >= powergrid.MinMeshN && n%2 == 0:
		return n + 1
	}
	return n
}

// BumpMesh builds (without solving) the pessimistic validation mesh the
// C8 analysis solves at meshN (n ≤ 0 selects DefaultMeshN). It serves the
// benchmark harness's mesh probes; the report itself goes through
// Bumps. Unlike Bumps this returns rather than panics on a lab without the
// 35 nm node.
func BumpMesh(lab *device.Lab, meshN int) (*powergrid.Mesh, error) {
	node, err := lab.Node(35)
	if err != nil {
		return nil, err
	}
	minSpec := powergrid.DefaultSpec(node, node.BumpPitchMinM)
	return powergrid.PessimisticMesh(minSpec, MeshN(meshN))
}

// Bumps is the C8 experiment: the ITRS bump plan vs the minimum
// attainable pitch at 35 nm (paper: a 356 µm effective pitch vs 80 µm,
// rails >2000× vs 16× minimum width, and 1500 Vdd bumps that cannot carry
// 300 A), validated against the 1-D ladder solver and bounded by the
// smeared n×n mesh (n ≤ 0 selects DefaultMeshN). The mesh drop is a
// closed-form sum of (n+1)²/4 terms evaluated once per n, so refinements
// (129, 255, ...) cost at most about a millisecond, once.
func Bumps(lab *device.Lab, meshN int) (*result.Result, error) {
	node := lab.MustNode(35)
	minSpec := powergrid.DefaultSpec(node, node.BumpPitchMinM)
	itrsSpec := powergrid.DefaultSpec(node, node.EffectiveBumpPitchM())
	szMin, err := minSpec.SizeRails()
	if err != nil {
		return nil, err
	}
	szITRS, feasible, err := itrsSpec.FeasibleRails()
	if err != nil {
		return nil, err
	}
	ladder, err := powergrid.ValidateAnalytic(minSpec, 256)
	if err != nil {
		return nil, err
	}
	mesh, err := powergrid.PessimisticRatio(minSpec, MeshN(meshN))
	if err != nil {
		return nil, err
	}
	cur := powergrid.CheckBumpCurrent(node)
	c := &result.Claim{}
	c.Num("effective_pitch_m", node.EffectiveBumpPitchM(), "m").
		Num("min_pitch_m", node.BumpPitchMinM, "m").
		Num("itrs_width_over_min", szITRS.WidthOverMin, "").
		Bool("itrs_feasible", feasible).
		Num("min_width_over_min", szMin.WidthOverMin, "").
		Num("supply_current_a", cur.SupplyCurrentA, "A").
		Num("vdd_bumps", float64(cur.VddBumps), "").
		Num("per_bump_a", cur.PerBumpA, "A").
		Num("capability_a", cur.CapabilityA, "A").
		Num("required_bumps", float64(cur.RequiredBumps), "").
		Num("ladder_ratio", ladder, "").
		Num("pessimistic_ratio", mesh, "")
	res := &result.Result{}
	res.AddClaim(c)
	return res, nil
}

// Transients is the C9 experiment at 35 nm: sleep-mode wakeup di/dt under
// the two bump plans and the MCML alternative.
func Transients(lab *device.Lab, _ int) (*result.Result, error) {
	const nodeNM = 35
	node := lab.MustNode(nodeNM)
	// A sleep-gated block: 1/8 of the die's switching logic, sized so its
	// active current is 1/8 of the chip draw; block_step_a is the
	// load-current step of re-awakening it.
	blockCurrent := node.SupplyCurrentA() / 8
	// Total gated NMOS width ~ logic transistors × average width.
	logicWidth := node.LogicTransistorsM * 1e6 / 8 * 4 * node.LeffM
	blk, err := mtcmos.NewBlockIn(lab, nodeNM, logicWidth, 0.08, blockCurrent)
	if err != nil {
		return nil, err
	}
	wake := blk.Wakeup()

	tMin := powergrid.DefaultTransientSpec(node)
	// Minimum-pitch plan: bump count set by die area over pitch².
	tMin.PowerBumps = int(node.DieAreaM2 / (node.BumpPitchMinM * node.BumpPitchMinM))
	tITRS := powergrid.DefaultTransientSpec(node)
	// An unstaged wakeup applies the block current essentially instantly
	// (the MTCMOS recharge time constant is far below the LC period): the
	// noise fractions are its droops under the two plans.
	noiseMin, err := tMin.Step(blockCurrent, wake.RampS)
	if err != nil {
		return nil, err
	}
	noiseITRS, err := tITRS.Step(blockCurrent, wake.RampS)
	if err != nil {
		return nil, err
	}
	// The staging times each plan requires to stay within 10 % of Vdd.
	safeMin, err := tMin.MinSafeRampS(blockCurrent, 0.10)
	if err != nil {
		return nil, err
	}
	safeITRS, err := tITRS.MinSafeRampS(blockCurrent, 0.10)
	if err != nil {
		return nil, err
	}

	// MCML compared against a static CMOS datapath gate.
	inv, err := gate.ReferenceInverterIn(lab, nodeNM)
	if err != nil {
		return nil, err
	}
	cmp, err := mcml.Compare(inv, node.Vdd, units.CelsiusToKelvin(85), 0.5, node.LocalClockHz)
	if err != nil {
		return nil, err
	}
	c := &result.Claim{}
	c.Num("node_nm", nodeNM, "nm").
		Num("block_standby_savings", blk.StandbySavings(), "").
		Num("block_delay_penalty", blk.DelayPenalty(), "").
		Num("block_step_a", blockCurrent, "A").
		Num("noise_min_pitch_fraction", noiseMin.NoiseFraction, "").
		Num("noise_itrs_fraction", noiseITRS.NoiseFraction, "").
		Num("safe_ramp_min_pitch_s", safeMin, "s").
		Num("safe_ramp_itrs_s", safeITRS, "s").
		Num("max_instant_step_min_a", tMin.MaxStepA(0.10), "A").
		Num("max_instant_step_itrs_a", tITRS.MaxStepA(0.10), "A").
		Num("mcml_power_w", cmp.McmlPowerW, "W").
		Num("cmos_power_w", cmp.CmosPowerW, "W").
		Num("crossover_activity", cmp.CrossoverActivity, "").
		Num("current_ripple_ratio", cmp.CurrentRippleRatio, "")
	res := &result.Result{}
	res.AddClaim(c)
	return res, nil
}
