// Package standby compares the §3.2.1 standby-leakage-reduction techniques
// on one footing: MTCMOS sleep transistors, reverse body biasing (variable-
// VT schemes [36]), negative NMOS gate drive [37], and stack/input-vector
// control in single-threshold logic [38]. Each technique is scored on
// standby leakage reduction, active-mode cost, area, and — the paper's
// discriminator — how the benefit scales into the nanometer nodes (body
// bias "is less effective at controlling Vth in scaled devices", while
// dual-Vth and gating remain usable).
package standby

import (
	"fmt"
	"math"

	"nanometer/internal/device"
	"nanometer/internal/mtcmos"
	"nanometer/internal/stackvth"
	"nanometer/internal/units"
)

// Technique identifies a standby-leakage approach.
type Technique int

const (
	// MTCMOSGating is the high-Vth sleep transistor of [34].
	MTCMOSGating Technique = iota
	// ReverseBodyBias raises Vth in standby through substrate bias [36].
	ReverseBodyBias
	// NegativeGateDrive under-drives NMOS gates below ground in standby
	// [37].
	NegativeGateDrive
	// InputVectorControl parks the logic in its minimum-leakage state,
	// exploiting the stack effect in single-Vth logic [38].
	InputVectorControl
	// DualVthStatic is the §3.2.2 baseline: high Vth off the critical
	// paths, active and standby alike.
	DualVthStatic
)

func (t Technique) String() string {
	switch t {
	case MTCMOSGating:
		return "MTCMOS sleep transistor"
	case ReverseBodyBias:
		return "reverse body bias"
	case NegativeGateDrive:
		return "negative gate drive"
	case InputVectorControl:
		return "input-vector (stack) control"
	case DualVthStatic:
		return "dual-Vth assignment"
	}
	return fmt.Sprintf("Technique(%d)", int(t))
}

// Techniques lists all modeled approaches.
func Techniques() []Technique {
	return []Technique{MTCMOSGating, ReverseBodyBias, NegativeGateDrive, InputVectorControl, DualVthStatic}
}

// Result scores one technique at one node.
type Result struct {
	Technique Technique
	NodeNM    int
	// StandbyReduction is 1 − standby/baseline leakage.
	StandbyReduction float64
	// ActiveReduction is the leakage reduction while operating (most
	// standby techniques give none).
	ActiveReduction float64
	// DelayPenalty is the active-mode slowdown.
	DelayPenalty float64
	// AreaOverhead is the relative device-area cost.
	AreaOverhead float64
	// Scalable reports whether the mechanism retains its usefulness with
	// scaling: the standby reduction at this node is at least 60 % of what
	// the same technique delivered at 180 nm. Reverse body bias fails this
	// at the nanometer nodes — the paper's "body bias is less effective at
	// controlling Vth in scaled devices".
	Scalable bool
	// Notes carries the mechanism summary.
	Notes string
}

// bodyEffectMV returns the Vth shift (V) a 1 V reverse body bias buys at a
// node. The body factor γ ∝ √(Na)·Tox falls as oxides thin and channels
// become heavily engineered; these values track the literature's decline
// from ≈180 mV/V at 180 nm to ≈35 mV/V at 35 nm — the quantitative form of
// "body bias is less effective at controlling Vth in scaled devices".
func bodyEffectMV(nodeNM int) float64 {
	v := map[int]float64{180: 0.18, 130: 0.14, 100: 0.10, 70: 0.07, 50: 0.05, 35: 0.035}
	if b, ok := v[nodeNM]; ok {
		return b
	}
	return 0.05
}

// EvaluateIn scores a technique for a logic block at a node. The block is
// characterized by its total NMOS width (m); the scalability flag compares
// the benefit against the same technique at the 180 nm reference node of
// the same laboratory.
func EvaluateIn(lab *device.Lab, t Technique, nodeNM int, logicWidthM float64) (Result, error) {
	res, err := rawEvaluate(lab, t, nodeNM, logicWidthM)
	if err != nil {
		return Result{}, err
	}
	if nodeNM == 180 {
		res.Scalable = true
		return res, nil
	}
	ref, err := rawEvaluate(lab, t, 180, logicWidthM)
	if err != nil {
		return Result{}, err
	}
	res.Scalable = res.StandbyReduction >= 0.6*ref.StandbyReduction
	return res, nil
}

func rawEvaluate(lab *device.Lab, t Technique, nodeNM int, logicWidthM float64) (Result, error) {
	node, err := lab.Node(nodeNM)
	if err != nil {
		return Result{}, err
	}
	d, err := lab.ForNode(nodeNM)
	if err != nil {
		return Result{}, err
	}
	T := units.CelsiusToKelvin(85)
	baseline := d.IoffPerWidth(node.Vdd, T) * logicWidthM

	res := Result{Technique: t, NodeNM: nodeNM}
	switch t {
	case MTCMOSGating:
		blk, err := mtcmos.NewBlockIn(lab, nodeNM, logicWidthM, 0.08, 50*logicWidthM)
		if err != nil {
			return Result{}, err
		}
		res.StandbyReduction = blk.StandbySavings()
		res.DelayPenalty = blk.DelayPenalty()
		res.AreaOverhead = blk.AreaOverhead()
		res.Notes = "high-Vth footer; leakage path gated off in sleep; no active-mode help"
	case ReverseBodyBias:
		// 1 V of reverse bias in standby raises Vth by the body factor.
		shift := bodyEffectMV(nodeNM)
		biased := d.WithVth(d.Vth0 + shift)
		res.StandbyReduction = 1 - biased.IoffPerWidth(node.Vdd, T)*logicWidthM/baseline
		res.DelayPenalty = 0 // bias released when active
		res.AreaOverhead = 0.04
		res.Notes = fmt.Sprintf("1 V reverse bias buys ΔVth = %.0f mV at this node (body effect shrinks with scaling)", shift*1e3)
	case NegativeGateDrive:
		// Driving idle NMOS gates to −0.15 V pushes them below threshold
		// by the underdrive directly.
		const under = 0.15
		sw := d.SubthresholdSwing(T)
		res.StandbyReduction = 1 - math.Pow(10, -under/sw)
		res.DelayPenalty = 0
		res.AreaOverhead = 0.06 // negative-rail generation and drivers
		res.Notes = "gate underdrive acts directly on the exponential; needs an extra rail"
	case InputVectorControl:
		// Park a representative 2-stack in its best state vs the average.
		st, err := stackvth.NewStackIn(lab, nodeNM, 2, 4*d.LeffM, []float64{d.Vth0, d.Vth0})
		if err != nil {
			return Result{}, err
		}
		avg, err := st.AverageLeakage()
		if err != nil {
			return Result{}, err
		}
		_, best, err := st.MinLeakageVector()
		if err != nil {
			return Result{}, err
		}
		if avg > 0 {
			res.StandbyReduction = 1 - best/avg
		}
		res.DelayPenalty = 0
		res.AreaOverhead = 0.02 // parking latches
		res.Notes = "drives idle logic into its maximum-stack-effect state; single threshold"
	case DualVthStatic:
		// The 40–80 % band of §3.2.2, active and standby alike; use a
		// 70 % representative with the 100 mV offset on ~85 % of width.
		high := d.WithVth(d.Vth0 + 0.1)
		mix := 0.85*high.IoffPerWidth(node.Vdd, T) + 0.15*d.IoffPerWidth(node.Vdd, T)
		res.StandbyReduction = 1 - mix/d.IoffPerWidth(node.Vdd, T)
		res.ActiveReduction = res.StandbyReduction
		res.DelayPenalty = 0.01
		res.AreaOverhead = 0
		res.Notes = "the only technique used in current high-end MPUs; helps active mode too"
	default:
		return Result{}, fmt.Errorf("standby: unknown technique %v", t)
	}
	return res, nil
}

// CompareIn evaluates all techniques at a node.
func CompareIn(lab *device.Lab, nodeNM int, logicWidthM float64) ([]Result, error) {
	out := make([]Result, 0, len(Techniques()))
	for _, t := range Techniques() {
		r, err := EvaluateIn(lab, t, nodeNM, logicWidthM)
		if err != nil {
			return nil, fmt.Errorf("standby: %v at %d nm: %w", t, nodeNM, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// ScalingTrendIn evaluates one technique across the roadmap, exposing how its
// benefit holds up (body bias decays; the others hold).
func ScalingTrendIn(lab *device.Lab, t Technique, logicWidthM float64) ([]Result, error) {
	var out []Result
	for _, nm := range lab.NodesNM() {
		r, err := EvaluateIn(lab, t, nm, logicWidthM)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
