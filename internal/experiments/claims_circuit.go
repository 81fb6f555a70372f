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
	"nanometer/internal/result"
	"nanometer/internal/runner"
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

// Library is the C3 experiment: the power at fixed timing of three
// drive-strength libraries (coarse legacy, rich modern, on-the-fly
// continuous) sizing the same oversized netlist.
func Library(lab *device.Lab, _ int) (*result.Result, error) {
	s := DefaultCircuitSetup()
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
	results, err := libopt.CompareLibraries(c, libs)
	if err != nil {
		return nil, err
	}
	cl := &result.Claim{}
	cl.Num("gates", float64(s.Gates), "").
		Num("node_nm", float64(s.NodeNM), "nm").
		Num("n_libraries", float64(len(results)), "")
	for i, r := range results {
		k := fmt.Sprintf("lib%d_", i)
		cl.Str(k+"name", r.Library.Name).
			Num(k+"power_w", r.Power.TotalW(), "W").
			Num(k+"size", r.TotalSize, "").
			Bool(k+"timing_met", r.TimingMet)
	}
	// The power savings of on-the-fly cells over the coarse legacy library
	// (paper: 15–22 %) and over the modern rich one.
	var vsCoarse, vsRich float64
	coarse := results[0].Power.TotalW()
	rich := results[1].Power.TotalW()
	cont := results[2].Power.TotalW()
	if coarse > 0 {
		vsCoarse = 1 - cont/coarse
	}
	if rich > 0 {
		vsRich = 1 - cont/rich
	}
	cl.Num("continuous_vs_coarse", vsCoarse, "").
		Num("continuous_vs_rich", vsRich, "")
	res := &result.Result{}
	res.AddClaim(cl)
	return res, nil
}

// CVS is the C4 experiment: clustered voltage scaling and its
// no-clustering ablation.
func CVS(lab *device.Lab, _ int) (*result.Result, error) {
	s := DefaultCircuitSetup()
	c, err := buildCircuitIn(lab, s)
	if err != nil {
		return nil, err
	}
	// path_utilization is the fraction of POs arriving before half the
	// period (the paper: over half in high-end MPUs).
	util := sta.Analyze(c).PathUtilization(c, 0.5)
	var clustered, unclustered *cvs.Result
	err = runner.Parallel(func() (err error) {
		if clustered, err = cvs.Assign(c.Clone(), cvs.DefaultOptions()); err != nil {
			return fmt.Errorf("experiments: clustered CVS: %w", err)
		}
		return nil
	}, func() (err error) {
		opts := cvs.DefaultOptions()
		opts.Clustering = false
		if unclustered, err = cvs.Assign(c.Clone(), opts); err != nil {
			return fmt.Errorf("experiments: unclustered CVS: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cl := &result.Claim{}
	cl.Num("low_vdd_ratio", s.LowVddRatio, "").
		Num("path_utilization", util, "").
		Num("clustered_assigned_fraction", clustered.AssignedFraction, "").
		Num("clustered_dynamic_saving", clustered.DynamicSaving, "").
		Num("clustered_lc_overhead", clustered.LCOverheadFraction, "").
		Num("clustered_area_overhead", clustered.AreaOverhead, "").
		Num("clustered_level_converters", float64(clustered.LevelConverters), "").
		Bool("clustered_timing_met", clustered.TimingMet).
		Num("unclustered_assigned_fraction", unclustered.AssignedFraction, "").
		Num("unclustered_dynamic_saving", unclustered.DynamicSaving, "").
		Num("unclustered_lc_overhead", unclustered.LCOverheadFraction, "").
		Num("unclustered_level_converters", float64(unclustered.LevelConverters), "")
	res := &result.Result{}
	res.AddClaim(cl)
	return res, nil
}

// DualVth is the C5 experiment: dual-threshold assignment in sensitivity
// order and its slack-ordered ablation. The netlist is clocked at its
// critical delay (guard 1.0): the dual-Vth literature's results are for
// timing-tight designs where the low threshold is what makes the clock.
func DualVth(lab *device.Lab, _ int) (*result.Result, error) {
	s := DefaultCircuitSetup()
	s.PeriodGuard = 1.0
	c1, err := buildCircuitIn(lab, s)
	if err != nil {
		return nil, err
	}
	c2 := c1.Clone()
	var sens, slack *dualvth.Result
	err = runner.Parallel(func() (err error) {
		sens, err = dualvth.Assign(c1, dualvth.Options{})
		return err
	}, func() (err error) {
		slack, err = dualvth.Assign(c2, dualvth.Options{Order: dualvth.BySlack})
		return err
	})
	if err != nil {
		return nil, err
	}
	cl := &result.Claim{}
	cl.Num("sensitivity_high_vth_fraction", sens.HighVthFraction, "").
		Num("sensitivity_leakage_saving", sens.LeakageSaving, "").
		Num("sensitivity_delay_penalty", sens.DelayPenalty, "").
		Bool("sensitivity_timing_met", sens.TimingMet).
		Num("slack_high_vth_fraction", slack.HighVthFraction, "").
		Num("slack_leakage_saving", slack.LeakageSaving, "")
	res := &result.Result{}
	res.AddClaim(cl)
	return res, nil
}

// ResizeVsVdd is the C6 experiment: the paper's §3.3 argument that
// downsizing returns sublinear power (wire capacitance persists) while a
// lower supply returns quadratic, the combined flow, and the paper's
// interaction warning that after re-sizing fewer cells tolerate Vdd,l.
func ResizeVsVdd(lab *device.Lab, _ int) (*result.Result, error) {
	base, err := buildCircuitIn(lab, DefaultCircuitSetup())
	if err != nil {
		return nil, err
	}
	// The stand-alone resize, and after it CVS on the downsized netlist
	// (the paper's sub-optimality observation), run beside the combined
	// flow; the two share nothing but the read-only base.
	var rz *resize.Result
	var comb *core.FlowResult
	var afterResize *cvs.Result
	err = runner.Parallel(func() (err error) {
		rzC := base.Clone()
		if rz, err = resize.Downsize(rzC, resize.DefaultOptions()); err != nil {
			return err
		}
		// rzC is the downsized netlist; sizing is deterministic, so a second
		// run on a fresh clone would only repeat it.
		afterResize, err = cvs.Assign(rzC, cvs.DefaultOptions())
		return err
	}, func() (err error) {
		comb, err = core.RunFlow(base.Clone())
		return err
	})
	if err != nil {
		return nil, err
	}
	// The flow's first stage is CVS with default options at 1/period on a
	// clean clone, which is exactly the stand-alone CVS observation.
	cvsOnSame := comb.CVS
	cl := &result.Claim{}
	cl.Num("resize_size_reduction", rz.SizeReduction, "").
		Num("resize_dynamic_saving", rz.DynamicSaving, "").
		Num("resize_sublinearity", rz.Sublinearity, "").
		Num("cvs_assigned_fraction", cvsOnSame.AssignedFraction, "").
		Num("cvs_dynamic_saving", cvsOnSame.DynamicSaving, "").
		Num("combined_total_saving", comb.TotalSaving, "").
		Num("combined_dynamic_saving", comb.DynamicSaving, "").
		Num("combined_leakage_saving", comb.LeakageSaving, "").
		Bool("combined_timing_met", comb.TimingMet).
		Num("assigned_after_resize", afterResize.AssignedFraction, "")
	res := &result.Result{}
	res.AddClaim(cl)
	return res, nil
}
