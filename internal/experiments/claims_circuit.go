package experiments

import (
	"fmt"

	"nanometer/internal/core"
	"nanometer/internal/cvs"
	"nanometer/internal/device"
	"nanometer/internal/dualvth"
	"nanometer/internal/libopt"
	"nanometer/internal/netlist"
	"nanometer/internal/resize"
	"nanometer/internal/sta"
)

// CircuitSetup describes the benchmark netlist profile the circuit-level
// experiments share.
type CircuitSetup struct {
	NodeNM int
	// Gates is the netlist size.
	Gates int
	// LowVddRatio is Vdd,l/Vdd,h for the multi-supply experiments.
	LowVddRatio float64
	// PeriodGuard relaxes the clock beyond the critical delay. Media-
	// processor-class designs (the CVS references) run ≈1.15; timing-
	// squeezed MPU blocks 1.0.
	PeriodGuard float64
	// Seed fixes the generated circuit.
	Seed int64
}

// DefaultCircuitSetup is the media-processor-like profile of the paper's
// CVS references [18,19].
func DefaultCircuitSetup() CircuitSetup {
	return CircuitSetup{NodeNM: 100, Gates: 3000, LowVddRatio: 0.65, PeriodGuard: 1.15, Seed: 7}
}

// buildCircuitIn generates the benchmark netlist for a setup.
func buildCircuitIn(lab *device.Lab, s CircuitSetup) (*netlist.Circuit, error) {
	tech, err := netlist.NewTechIn(lab, s.NodeNM, s.LowVddRatio)
	if err != nil {
		return nil, err
	}
	p := netlist.DefaultGenParams()
	p.Gates = s.Gates
	p.Levels = 30
	p.ShortPathFraction = 0.5
	p.Seed = s.Seed
	c, err := netlist.Generate(tech, p)
	if err != nil {
		return nil, err
	}
	if _, err := sta.SetPeriodFromCritical(c, s.PeriodGuard); err != nil {
		return nil, err
	}
	return c, nil
}

// CVSResult is the C4 experiment output.
type CVSResult struct {
	Setup CircuitSetup
	// PathUtilization is the fraction of POs arriving before half the
	// period (the paper: over half in high-end MPUs).
	PathUtilization float64
	// Clustered is the CVS run; Unclustered the no-clustering ablation.
	Clustered, Unclustered *cvs.Result
}

// RunCVSIn runs clustered voltage scaling and its clustering ablation.
func RunCVSIn(lab *device.Lab, s CircuitSetup) (*CVSResult, error) {
	c, err := buildCircuitIn(lab, s)
	if err != nil {
		return nil, err
	}
	r := sta.Analyze(c)
	out := &CVSResult{Setup: s, PathUtilization: r.PathUtilization(c, 0.5)}
	clustered := c.Clone()
	out.Clustered, err = cvs.Assign(clustered, cvs.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("experiments: clustered CVS: %w", err)
	}
	opts := cvs.DefaultOptions()
	opts.Clustering = false
	unclustered := c.Clone()
	out.Unclustered, err = cvs.Assign(unclustered, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: unclustered CVS: %w", err)
	}
	return out, nil
}

// DualVthResult is the C5 experiment output.
type DualVthResult struct {
	Setup CircuitSetup
	// Sensitivity is the default ordering; SlackOrdered the ablation.
	Sensitivity, SlackOrdered *dualvth.Result
}

// RunDualVthIn runs dual-threshold assignment and its ordering ablation. The
// netlist is clocked at its critical delay (guard 1.0): the dual-Vth
// literature's results are for timing-tight designs where the low threshold
// is what makes the clock.
func RunDualVthIn(lab *device.Lab, s CircuitSetup) (*DualVthResult, error) {
	s.PeriodGuard = 1.0
	out := &DualVthResult{Setup: s}
	c1, err := buildCircuitIn(lab, s)
	if err != nil {
		return nil, err
	}
	out.Sensitivity, err = dualvth.Assign(c1, dualvth.Options{})
	if err != nil {
		return nil, err
	}
	c2, err := buildCircuitIn(lab, s)
	if err != nil {
		return nil, err
	}
	out.SlackOrdered, err = dualvth.Assign(c2, dualvth.Options{Order: dualvth.BySlack})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ResizeVsVddResult is the C6 experiment: the paper's §3.3 argument that
// downsizing returns sublinear power (wire capacitance persists) while a
// lower supply returns quadratic.
type ResizeVsVddResult struct {
	Setup CircuitSetup
	// Resize is the downsizing run on an oversized netlist.
	Resize *resize.Result
	// CVSOnSame is CVS applied to a clone of the same starting netlist.
	CVSOnSame *cvs.Result
	// Combined is the full pipeline on a third clone.
	Combined *core.FlowResult
	// ResizeAfterCVS captures the paper's interaction warning: after
	// re-sizing, fewer cells tolerate Vdd,l. AssignedAfterResize is the
	// CVS fraction when re-sizing runs first.
	AssignedAfterResize float64
}

// RunResizeVsVddIn runs the C6 comparison.
func RunResizeVsVddIn(lab *device.Lab, s CircuitSetup) (*ResizeVsVddResult, error) {
	base, err := buildCircuitIn(lab, s)
	if err != nil {
		return nil, err
	}
	out := &ResizeVsVddResult{Setup: s}

	rzC := base.Clone()
	out.Resize, err = resize.Downsize(rzC, resize.DefaultOptions())
	if err != nil {
		return nil, err
	}
	cvsC := base.Clone()
	out.CVSOnSame, err = cvs.Assign(cvsC, cvs.DefaultOptions())
	if err != nil {
		return nil, err
	}
	combC := base.Clone()
	out.Combined, err = core.RunFlow(combC, core.DefaultFlowOptions())
	if err != nil {
		return nil, err
	}
	// Resize first, then CVS: the paper's sub-optimality observation. The
	// downsized netlist is rzC's; sizing is deterministic, so a second run
	// on a fresh clone would only repeat it.
	afterCVS, err := cvs.Assign(rzC.Clone(), cvs.DefaultOptions())
	if err != nil {
		return nil, err
	}
	out.AssignedAfterResize = afterCVS.AssignedFraction
	return out, nil
}

// LibraryResult is the C3 experiment output.
type LibraryResult struct {
	Setup CircuitSetup
	// Results are per-library, in the order coarse, rich, continuous.
	Results []*libopt.Result
	// ContinuousVsCoarse is the power saving of on-the-fly cells over the
	// coarse legacy library (paper: 15–22 %).
	ContinuousVsCoarse float64
	// ContinuousVsRich is the saving over the modern rich library.
	ContinuousVsRich float64
}

// RunLibraryIn runs the library-granularity comparison.
func RunLibraryIn(lab *device.Lab, s CircuitSetup) (*LibraryResult, error) {
	c, err := buildCircuitIn(lab, s)
	if err != nil {
		return nil, err
	}
	// Start oversized, as synthesized netlists are.
	for i := range c.Gates {
		c.Gates[i].Size = 8
	}
	if _, err := sta.SetPeriodFromCritical(c, s.PeriodGuard); err != nil {
		return nil, err
	}
	libs := []libopt.Library{
		libopt.Geometric("coarse legacy (min 4, ratio 2)", 4, 64, 2),
		libopt.Geometric("rich modern (min 1, ratio 1.3)", 1, 64, 1.3),
		libopt.Continuous(0.25),
	}
	results, err := libopt.CompareLibraries(c, libs, 0)
	if err != nil {
		return nil, err
	}
	out := &LibraryResult{Setup: s, Results: results}
	coarse := results[0].Power.TotalW()
	rich := results[1].Power.TotalW()
	cont := results[2].Power.TotalW()
	if coarse > 0 {
		out.ContinuousVsCoarse = 1 - cont/coarse
	}
	if rich > 0 {
		out.ContinuousVsRich = 1 - cont/rich
	}
	return out, nil
}
