package core

import (
	"fmt"

	"nanometer/internal/cvs"
	"nanometer/internal/dualvth"
	"nanometer/internal/netlist"
	"nanometer/internal/power"
	"nanometer/internal/resize"
)

// FlowResult aggregates the pipeline outcome.
type FlowResult struct {
	// Before and After are the end-to-end power reports at 1/period: the
	// first stage's Before and the last stage's After.
	Before, After *power.Report
	// TotalSaving, DynamicSaving, LeakageSaving are 1 − after/before.
	TotalSaving, DynamicSaving, LeakageSaving float64
	// The stage results.
	CVS     *cvs.Result
	DualVth *dualvth.Result
	Resize  *resize.Result
	// TimingMet confirms the final circuit meets its period (the last
	// stage's check).
	TimingMet bool
}

// RunFlow executes the combined multi-Vdd + multi-Vth + re-sizing pipeline
// on the circuit (modified in place), each stage with its default options.
// The paper's ordering is fixed: non-critical gates first move to the
// reduced supply, then threshold selection, then sizing mops up the
// remaining slack. The circuit needs a two-supply tech and must meet its
// period.
func RunFlow(c *netlist.Circuit) (*FlowResult, error) {
	cvsRes, err := cvs.Assign(c, cvs.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("core: CVS stage: %w", err)
	}
	vthRes, err := dualvth.Assign(c, dualvth.Options{})
	if err != nil {
		return nil, fmt.Errorf("core: dual-Vth stage: %w", err)
	}
	sizeRes, err := resize.Downsize(c, resize.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("core: resize stage: %w", err)
	}
	before, after := cvsRes.Before, sizeRes.After
	res := &FlowResult{
		Before: before, After: after,
		CVS: cvsRes, DualVth: vthRes, Resize: sizeRes,
		TimingMet: sizeRes.TimingMet,
	}
	if t := before.TotalW(); t > 0 {
		res.TotalSaving = 1 - after.TotalW()/t
	}
	if before.DynamicW > 0 {
		res.DynamicSaving = 1 - after.DynamicW/before.DynamicW
	}
	if before.LeakageW > 0 {
		res.LeakageSaving = 1 - after.LeakageW/before.LeakageW
	}
	return res, nil
}
