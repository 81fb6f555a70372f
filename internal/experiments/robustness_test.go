package experiments

import (
	"testing"

	"nanometer/internal/core"
	"nanometer/internal/cvs"
	"nanometer/internal/device"
	"nanometer/internal/dualvth"
	"nanometer/internal/itrs"
	"nanometer/internal/netlist"
	"nanometer/internal/power"
	"nanometer/internal/resize"
	"nanometer/internal/signaling"
	"nanometer/internal/sta"
)

// The optimization invariants must hold for any generated circuit, at any
// supported node, not just the default experiment seed. These sweeps are the
// repository's failure-injection net for the greedy engines: every accepted
// flow must end timing-clean with less power than it started.

func robustnessSetups() []CircuitSetup {
	var out []CircuitSetup
	for _, nm := range []int{180, 100, 50} {
		for seed := int64(1); seed <= 3; seed++ {
			out = append(out, CircuitSetup{
				NodeNM: nm, Gates: 900, LowVddRatio: 0.65, PeriodGuard: 1.12, Seed: seed,
			})
		}
	}
	return out
}

func TestCombinedFlowRobustAcrossSeedsAndNodes(t *testing.T) {
	for _, s := range robustnessSetups() {
		s := s
		c, err := buildCircuitIn(device.BaseLab(), s)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		before := power.Analyze(c.Clone(), 1/c.ClockPeriodS)
		res, err := core.RunFlow(c)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if !res.TimingMet {
			t.Errorf("%+v: flow violated timing", s)
		}
		if res.After.TotalW() >= before.TotalW() {
			t.Errorf("%+v: flow did not reduce power", s)
		}
		if res.TotalSaving < 0.15 {
			t.Errorf("%+v: combined saving only %.0f%%", s, res.TotalSaving*100)
		}
	}
}

func TestCVSStructureInvariantAcrossSeeds(t *testing.T) {
	for _, s := range robustnessSetups() {
		c, err := buildCircuitIn(device.BaseLab(), s)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if _, err := cvs.Assign(c, cvs.DefaultOptions()); err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		for i := range c.Gates {
			g := &c.Gates[i]
			if g.VddClass != 1 {
				continue
			}
			for _, fo := range g.Fanouts {
				if c.Gates[fo].VddClass != 1 {
					t.Fatalf("%+v: CVS structure rule violated at gate %d", s, i)
				}
			}
		}
		if r := sta.Analyze(c); !r.Met() {
			t.Fatalf("%+v: CVS broke timing", s)
		}
	}
}

func TestDualVthNeverSlowsPastPeriodAcrossSeeds(t *testing.T) {
	for _, s := range robustnessSetups() {
		s.PeriodGuard = 1.0 // the hardest case: zero slack on the critical path
		c, err := buildCircuitIn(device.BaseLab(), s)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		res, err := dualvth.Assign(c, dualvth.Options{})
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if !res.TimingMet {
			t.Errorf("%+v: dual-Vth violated a zero-slack clock", s)
		}
		if res.LeakageSaving <= 0 {
			t.Errorf("%+v: no leakage saving", s)
		}
	}
}

func TestResizeFloorsAndTimingAcrossSeeds(t *testing.T) {
	for _, s := range robustnessSetups() {
		c, err := buildCircuitIn(device.BaseLab(), s)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		opts := resize.DefaultOptions()
		res, err := resize.Downsize(c, opts)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if !res.TimingMet {
			t.Errorf("%+v: resize violated timing", s)
		}
		for i := range c.Gates {
			if c.Gates[i].Size < opts.MinSize-1e-12 {
				t.Fatalf("%+v: gate %d below floor", s, i)
			}
		}
	}
}

func TestGeneratorInvariantsAcrossSeeds(t *testing.T) {
	tech, err := netlist.NewTechIn(device.BaseLab(), 100, 0.65)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 12; seed++ {
		p := netlist.DefaultGenParams()
		p.Gates = 400
		p.Seed = seed
		c, err := netlist.Generate(tech, p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r := sta.Analyze(c)
		if r.MaxDelayS <= 0 {
			t.Fatalf("seed %d: no timing paths", seed)
		}
		power.PropagateActivity(c)
		for i := range c.Gates {
			g := &c.Gates[i]
			if g.Prob < 0 || g.Prob > 1 {
				t.Fatalf("seed %d: gate %d probability %g", seed, i, g.Prob)
			}
			if g.Activity < 0 || g.Activity > 0.5 {
				t.Fatalf("seed %d: gate %d activity %g", seed, i, g.Activity)
			}
		}
	}
}

func TestDTMRobustAcrossNodes(t *testing.T) {
	// The DTM pipeline (plant + sensor + throttle + cooling selection)
	// must close at every nanometer node, not just the 50 nm headline.
	for _, nm := range []int{100, 70, 50, 35} {
		res, err := dtmAt(device.BaseLab(), nm)
		if err != nil {
			t.Fatalf("%d nm: %v", nm, err)
		}
		c := findings(t, res)
		if f := num(t, c, "effective_fraction"); f < 0.6 || f > 0.9 {
			t.Errorf("%d nm: effective worst case %.2f out of band", nm, f)
		}
		if num(t, c, "cooling_theoretical_cost_usd") < num(t, c, "cooling_effective_cost_usd") {
			t.Errorf("%d nm: DTM cannot make cooling more expensive", nm)
		}
		node := itrs.Base().MustNode(nm)
		if num(t, c, "virus_peak_temp_c") > node.JunctionTempC+0.5 {
			t.Errorf("%d nm: virus breached the junction limit", nm)
		}
	}
}

func TestBusPlanRobustAcrossNodes(t *testing.T) {
	for _, nm := range []int{100, 70, 50, 35} {
		plan, err := planBusesAt(device.BaseLab(), nm)
		if err != nil {
			t.Fatalf("%d nm: %v", nm, err)
		}
		if !(plan.Saving > 0) {
			t.Errorf("%d nm: no saving from mixed primitives", nm)
		}
		counts := plan.SchemeCounts()
		if counts[signaling.FullSwingRepeated]+counts[signaling.LowSwing]+counts[signaling.DifferentialLowSwing] != len(plan.Choices) {
			t.Errorf("%d nm: scheme counts inconsistent", nm)
		}
	}
}
