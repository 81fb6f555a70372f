package logicsim

import (
	"math"
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/gate"
	"nanometer/internal/netlist"
)

func genCircuit(t *testing.T, gates int, seed int64) *netlist.Circuit {
	t.Helper()
	tech := mustTech(t, 100, 0.65)
	p := netlist.DefaultGenParams()
	p.Gates = gates
	p.Seed = seed
	c, err := netlist.Generate(tech, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestInverterChainExact(t *testing.T) {
	// An inverter chain propagates the PI toggle stream unchanged: every
	// gate's measured activity equals the PI toggle probability and the
	// probability sits at 0.5.
	tech := mustTech(t, 100, 0.65)
	c := &netlist.Circuit{Tech: tech, NumPIs: 1, PIActivity: 0.2}
	for i := 0; i < 6; i++ {
		in := netlist.PI(0)
		if i > 0 {
			in = i - 1
		}
		c.Gates = append(c.Gates, netlist.Gate{ID: i, Kind: gate.Inv, Inputs: []int{in}, Size: 2})
	}
	c.Rebuild()
	res, err := Simulate(c, Options{Cycles: 20000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Gates {
		if math.Abs(res.Prob[i]-0.5) > 0.02 {
			t.Fatalf("gate %d probability = %g, want 0.5", i, res.Prob[i])
		}
		if math.Abs(res.Activity[i]-0.2) > 0.02 {
			t.Fatalf("gate %d activity = %g, want the PI toggle rate 0.2", i, res.Activity[i])
		}
	}
}

func TestNandTruthTable(t *testing.T) {
	// A NAND of two independent PIs spends 3/4 of the time at 1.
	tech := mustTech(t, 100, 0.65)
	c := &netlist.Circuit{Tech: tech, NumPIs: 2, PIActivity: 0.5}
	c.Gates = []netlist.Gate{
		{ID: 0, Kind: gate.Nand, Inputs: []int{netlist.PI(0), netlist.PI(1)}, Size: 2},
		{ID: 1, Kind: gate.Nor, Inputs: []int{netlist.PI(0), netlist.PI(1)}, Size: 2},
	}
	c.Rebuild()
	res, err := Simulate(c, Options{Cycles: 40000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Prob[0]-0.75) > 0.02 {
		t.Fatalf("NAND probability = %g, want 0.75", res.Prob[0])
	}
	if math.Abs(res.Prob[1]-0.25) > 0.02 {
		t.Fatalf("NOR probability = %g, want 0.25", res.Prob[1])
	}
}

func TestModelValidation(t *testing.T) {
	// The headline: the analytical activity propagation tracks measured
	// simulation closely (reconvergent fanout correlation bounds it).
	c := genCircuit(t, 800, 3)
	probMAE, actMAE, err := CompareWithModel(c, Options{Cycles: 8192, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if probMAE > 0.04 {
		t.Fatalf("probability MAE = %g, model diverges from simulation", probMAE)
	}
	if actMAE > 0.06 {
		t.Fatalf("activity MAE = %g, model diverges from simulation", actMAE)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	c := genCircuit(t, 200, 4)
	a, err := Simulate(c, Options{Cycles: 1000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(c, Options{Cycles: 1000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Prob {
		if a.Prob[i] != b.Prob[i] || a.Activity[i] != b.Activity[i] {
			t.Fatalf("simulation must be deterministic per seed")
		}
	}
	other, err := Simulate(c, Options{Cycles: 1000, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Prob {
		if a.Prob[i] != other.Prob[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds should differ")
	}
}

func TestActivityScalesWithStimulus(t *testing.T) {
	c := genCircuit(t, 400, 5)
	slow, err := Simulate(c, Options{Cycles: 8000, Seed: 1, PIToggleProb: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Simulate(c, Options{Cycles: 8000, Seed: 1, PIToggleProb: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	var slowSum, fastSum float64
	for i := range slow.Activity {
		slowSum += slow.Activity[i]
		fastSum += fast.Activity[i]
	}
	if fastSum <= 2*slowSum {
		t.Fatalf("8× the stimulus must raise total activity substantially: %g vs %g", fastSum, slowSum)
	}
}

func TestSimulateErrors(t *testing.T) {
	c := genCircuit(t, 100, 6)
	if _, err := Simulate(c, Options{PIToggleProb: 1.5}); err == nil {
		t.Fatalf("bad toggle probability must error")
	}
	c.PIActivity = 0
	if _, err := Simulate(c, Options{}); err == nil {
		t.Fatalf("unset stimulus must error")
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
