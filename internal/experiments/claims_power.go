package experiments

import (
	"nanometer/internal/core"
	"nanometer/internal/device"
	"nanometer/internal/gate"
	"nanometer/internal/mcml"
	"nanometer/internal/mtcmos"
	"nanometer/internal/powergrid"
	"nanometer/internal/units"
)

// VddFloorResult is the C7 experiment: the lowest supply the ITRS
// Pdyn ≥ 10·Pstatic constraint permits under the constant-Pstatic policy at
// 35 nm, and the dynamic-power saving it buys (paper: ≈0.44 V, 46 %).
type VddFloorResult struct {
	Vdd     float64
	Savings float64
	// At02V captures the headline Figure 3 point: delay and power at
	// Vdd = 0.2 V under the constant-Pstatic policy.
	At02V core.OperatingPoint
}

// RunVddFloorIn runs the C7 computation.
func RunVddFloorIn(lab *device.Lab) (*VddFloorResult, error) {
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
	return &VddFloorResult{Vdd: v, Savings: s, At02V: at02}, nil
}

// BumpsResult is the C8 experiment: the ITRS bump plan vs the minimum
// attainable pitch at 35 nm.
type BumpsResult struct {
	// EffectivePitchM is the pitch implied by the ITRS pad counts (paper:
	// ≈356 µm); MinPitchM the attainable pitch (80 µm).
	EffectivePitchM, MinPitchM float64
	// ITRSWidthOverMin and MinWidthOverMin are the required rail widths
	// (paper: >2000× vs 16×).
	ITRSWidthOverMin, MinWidthOverMin float64
	// ITRSFeasible reports whether the ITRS-plan rails even fit the die.
	ITRSFeasible bool
	// Current check (paper: 1500 Vdd bumps cannot carry 300 A).
	Current powergrid.BumpCurrentCheck
	// LadderRatio validates the analytic sizing against the 1-D solver;
	// PessimisticRatio is the 2-D smeared-mesh upper bound.
	LadderRatio, PessimisticRatio float64
}

// DefaultMeshN is the 2-D mesh discretization the C8 analysis uses unless
// RunBumpsNIn is given another: fine enough that the smeared-mesh bound is
// converged at report precision, small enough to stay cheap.
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
// RunBumpsNIn. Unlike RunBumpsNIn this returns rather than panics on a
// lab without the 35 nm node.
func BumpMesh(lab *device.Lab, meshN int) (*powergrid.Mesh, error) {
	node, err := lab.Node(35)
	if err != nil {
		return nil, err
	}
	minSpec := powergrid.DefaultSpec(node, node.BumpPitchMinM)
	return powergrid.PessimisticMesh(minSpec, MeshN(meshN))
}

// RunBumpsNIn runs the C8 analysis at 35 nm with an n×n validation mesh
// (n ≤ 0 selects DefaultMeshN). The mesh drop is a closed-form sum of
// (n+1)²/4 terms evaluated once per n, so refinements (129, 255, ...)
// cost at most about a millisecond, once.
func RunBumpsNIn(lab *device.Lab, meshN int) (*BumpsResult, error) {
	meshN = MeshN(meshN)
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
	mesh, err := powergrid.PessimisticRatio(minSpec, meshN)
	if err != nil {
		return nil, err
	}
	return &BumpsResult{
		EffectivePitchM:  node.EffectiveBumpPitchM(),
		MinPitchM:        node.BumpPitchMinM,
		ITRSWidthOverMin: szITRS.WidthOverMin,
		MinWidthOverMin:  szMin.WidthOverMin,
		ITRSFeasible:     feasible,
		Current:          powergrid.CheckBumpCurrent(node),
		LadderRatio:      ladder,
		PessimisticRatio: mesh,
	}, nil
}

// TransientsResult is the C9 experiment: sleep-mode wakeup di/dt and the
// MCML alternative.
type TransientsResult struct {
	NodeNM int
	// BlockStepA is the load-current step of re-awakening the gated block.
	BlockStepA float64
	// Wakeup is the MTCMOS block's uncontrolled inrush event.
	Wakeup mtcmos.WakeupEvent
	// NoiseMinPitch and NoiseITRS are the droops of an unstaged (instant)
	// wakeup under the two bump plans.
	NoiseMinPitch, NoiseITRS powergrid.TransientResult
	// SafeRampMinPitchS / SafeRampITRSS are the staging times each plan
	// requires to stay within 10 % of Vdd.
	SafeRampMinPitchS, SafeRampITRSS float64
	// MaxInstantStepMinA / MaxInstantStepITRSA are the largest unstaged
	// steps each plan tolerates.
	MaxInstantStepMinA, MaxInstantStepITRSA float64
	// BlockStandbySavings and BlockDelayPenalty summarize the MTCMOS block.
	BlockStandbySavings, BlockDelayPenalty float64
	// MCML compares current-mode logic against a static CMOS datapath gate.
	MCML mcml.Comparison
}

// RunTransientsIn runs the C9 analysis at 35 nm.
func RunTransientsIn(lab *device.Lab) (*TransientsResult, error) {
	const nodeNM = 35
	node := lab.MustNode(nodeNM)
	// A sleep-gated block: 1/8 of the die's switching logic, sized so its
	// active current is 1/8 of the chip draw.
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
	// (the MTCMOS recharge time constant is far below the LC period).
	noiseMin, err := tMin.Step(blockCurrent, wake.RampS)
	if err != nil {
		return nil, err
	}
	noiseITRS, err := tITRS.Step(blockCurrent, wake.RampS)
	if err != nil {
		return nil, err
	}
	safeMin, err := tMin.MinSafeRampS(blockCurrent, 0.10)
	if err != nil {
		return nil, err
	}
	safeITRS, err := tITRS.MinSafeRampS(blockCurrent, 0.10)
	if err != nil {
		return nil, err
	}

	inv, err := gate.ReferenceInverterIn(lab, nodeNM)
	if err != nil {
		return nil, err
	}
	cmp, err := mcml.Compare(inv, node.Vdd, units.CelsiusToKelvin(85), 0.5, node.LocalClockHz)
	if err != nil {
		return nil, err
	}
	return &TransientsResult{
		NodeNM:              nodeNM,
		BlockStepA:          blockCurrent,
		Wakeup:              wake,
		NoiseMinPitch:       noiseMin,
		NoiseITRS:           noiseITRS,
		SafeRampMinPitchS:   safeMin,
		SafeRampITRSS:       safeITRS,
		MaxInstantStepMinA:  tMin.MaxStepA(0.10),
		MaxInstantStepITRSA: tITRS.MaxStepA(0.10),
		BlockStandbySavings: blk.StandbySavings(),
		BlockDelayPenalty:   blk.DelayPenalty(),
		MCML:                cmp,
	}, nil
}
