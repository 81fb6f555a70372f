package cvs

import (
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/netlist"
	"nanometer/internal/sta"
)

func mediaCircuit(t *testing.T, seed int64) *netlist.Circuit {
	t.Helper()
	tech := mustTech(t, 100, 0.65)
	p := netlist.DefaultGenParams()
	p.Gates = 1500
	p.Levels = 30
	p.ShortPathFraction = 0.5
	p.Seed = seed
	c, err := netlist.Generate(tech, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sta.SetPeriodFromCritical(c, 1.15); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAssignBasics(t *testing.T) {
	c := mediaCircuit(t, 1)
	res, err := Assign(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimingMet {
		t.Fatalf("assignment must preserve timing")
	}
	if res.AssignedFraction < 0.4 || res.AssignedFraction > 0.98 {
		t.Fatalf("assigned fraction = %g, expected a substantial share", res.AssignedFraction)
	}
	if res.DynamicSaving <= 0.1 {
		t.Fatalf("dynamic saving = %g, expected > 10%%", res.DynamicSaving)
	}
	if res.LevelConverters == 0 {
		t.Fatalf("a clustered design still needs converters at the POs")
	}
	if res.AreaOverhead <= 0 {
		t.Fatalf("multi-Vdd must cost area")
	}
	if res.LCOverheadFraction <= 0 || res.LCOverheadFraction > 0.3 {
		t.Fatalf("LC overhead = %g, expected the ~10%% band", res.LCOverheadFraction)
	}
}

func TestClusteringStructureInvariant(t *testing.T) {
	c := mediaCircuit(t, 2)
	if _, err := Assign(c, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.VddClass != 1 {
			if g.NeedsLC {
				t.Fatalf("gate %d at Vdd,h must not carry a converter", i)
			}
			continue
		}
		// CVS rule: a low-supply gate drives only low-supply gates; its
		// only conversion point is a PO register.
		for _, fo := range g.Fanouts {
			if c.Gates[fo].VddClass != 1 {
				t.Fatalf("clustered CVS violated: low gate %d drives high gate %d", i, fo)
			}
		}
		if g.IsPO && !g.NeedsLC {
			t.Fatalf("low-supply PO %d must convert at the register", i)
		}
		if !g.IsPO && g.NeedsLC {
			t.Fatalf("interior gate %d should not need a converter under clustering", i)
		}
	}
}

func TestUnclusteredAssignsMore(t *testing.T) {
	cc := mediaCircuit(t, 3)
	clustered, err := Assign(cc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cu := mediaCircuit(t, 3)
	opts := DefaultOptions()
	opts.Clustering = false
	unclustered, err := Assign(cu, opts)
	if err != nil {
		t.Fatal(err)
	}
	if unclustered.AssignedFraction < clustered.AssignedFraction {
		t.Fatalf("dropping the structure rule cannot reduce eligibility: %g vs %g",
			unclustered.AssignedFraction, clustered.AssignedFraction)
	}
	if unclustered.LevelConverters <= clustered.LevelConverters {
		t.Fatalf("unclustered assignment must pay more converters (%d vs %d)",
			unclustered.LevelConverters, clustered.LevelConverters)
	}
	if !unclustered.TimingMet {
		t.Fatalf("unclustered result must still meet timing")
	}
}

func TestLevelConverterCountMatchesFlags(t *testing.T) {
	c := mediaCircuit(t, 4)
	res, err := Assign(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := range c.Gates {
		if c.Gates[i].NeedsLC {
			n++
		}
	}
	if n != res.LevelConverters {
		t.Fatalf("LC count %d vs flags %d", res.LevelConverters, n)
	}
}

func TestTightClockLimitsAssignment(t *testing.T) {
	loose := mediaCircuit(t, 5)
	resLoose, err := Assign(loose, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tight := mediaCircuit(t, 5)
	if _, err := sta.SetPeriodFromCritical(tight, 1.0); err != nil {
		t.Fatal(err)
	}
	resTight, err := Assign(tight, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if resTight.AssignedFraction >= resLoose.AssignedFraction {
		t.Fatalf("a tighter clock must reduce the Vdd,l population (%g vs %g)",
			resTight.AssignedFraction, resLoose.AssignedFraction)
	}
	if !resTight.TimingMet {
		t.Fatalf("tight assignment must still meet timing")
	}
}

func TestAssignErrors(t *testing.T) {
	single := mustTech(t, 100, 0)
	p := netlist.DefaultGenParams()
	p.Gates = 100
	c, err := netlist.Generate(single, p)
	if err != nil {
		t.Fatal(err)
	}
	c.ClockPeriodS = 1e-9
	if _, err := Assign(c, DefaultOptions()); err == nil {
		t.Fatalf("single-supply tech must error")
	}

	c2 := mediaCircuit(t, 6)
	c2.ClockPeriodS = 0
	if _, err := Assign(c2, DefaultOptions()); err == nil {
		t.Fatalf("missing period must error")
	}
	c3 := mediaCircuit(t, 6)
	c3.ClockPeriodS /= 10 // infeasible
	if _, err := Assign(c3, DefaultOptions()); err == nil {
		t.Fatalf("violated baseline must error")
	}
}

// mustTech builds a technology on the base roadmap, failing the test on
// error.
func mustTech(t testing.TB, nodeNM int, lowRatio float64) *netlist.Tech {
	t.Helper()
	tech, err := netlist.NewTechIn(device.BaseLab(), nodeNM, lowRatio)
	if err != nil {
		t.Fatal(err)
	}
	return tech
}
