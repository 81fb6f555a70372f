package sta

import (
	"math"
	"slices"
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/gate"
	"nanometer/internal/netlist"
)

// chain builds a hand-analyzable linear chain of n inverters.
func chain(t *testing.T, n int) *netlist.Circuit {
	t.Helper()
	tech := mustTech(t, 100, 0.65)
	c := &netlist.Circuit{Tech: tech, NumPIs: 1, PIActivity: 0.1}
	for i := 0; i < n; i++ {
		in := netlist.PI(0)
		if i > 0 {
			in = i - 1
		}
		c.Gates = append(c.Gates, netlist.Gate{
			ID: i, Kind: gate.Inv, Inputs: []int{in}, Size: 2, WireCapF: 1e-15,
		})
	}
	c.Rebuild()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

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
	if _, err := SetPeriodFromCritical(c, 1.1); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChainArrivals(t *testing.T) {
	c := chain(t, 5)
	r := Analyze(c)
	// Arrival must accumulate gate delays exactly.
	sum := 0.0
	for i := 0; i < 5; i++ {
		sum += r.DelayS[i]
		if math.Abs(r.ArrivalS[i]-sum) > 1e-18 {
			t.Fatalf("arrival[%d] = %g, want %g", i, r.ArrivalS[i], sum)
		}
	}
	if r.MaxDelayS != r.ArrivalS[4] {
		t.Fatalf("critical delay must equal the sink arrival")
	}
	// With period = critical delay, every gate on the chain has zero slack.
	for i := range r.SlackS {
		if math.Abs(r.SlackS[i]) > 1e-15 {
			t.Fatalf("chain slack[%d] = %g, want 0", i, r.SlackS[i])
		}
	}
	if len(r.CriticalPath) != 5 {
		t.Fatalf("critical path length %d, want 5", len(r.CriticalPath))
	}
}

func TestSlackConsistency(t *testing.T) {
	c := genCircuit(t, 800, 1)
	r := Analyze(c)
	if !r.Met() {
		t.Fatalf("10%% guard must meet timing")
	}
	for i := range c.Gates {
		// Slack = required − arrival by definition.
		if math.Abs(r.SlackS[i]-(r.RequiredS[i]-r.ArrivalS[i])) > 1e-18 {
			t.Fatalf("slack identity broken at gate %d", i)
		}
	}
	// Worst slack must equal the guard margin on the critical path.
	wantWorst := r.PeriodS - r.MaxDelayS
	if math.Abs(r.WorstSlackS-wantWorst) > 1e-15 {
		t.Fatalf("worst slack %g, want %g", r.WorstSlackS, wantWorst)
	}
}

func TestCriticalPathIsConnectedAndCritical(t *testing.T) {
	c := genCircuit(t, 800, 2)
	r := Analyze(c)
	cp := r.CriticalPath
	if len(cp) == 0 {
		t.Fatalf("no critical path")
	}
	last := cp[len(cp)-1]
	if !c.Gates[last].IsPO || math.Abs(r.ArrivalS[last]-r.MaxDelayS) > 1e-18 {
		t.Fatalf("critical path must end at the worst PO")
	}
	for i := 1; i < len(cp); i++ {
		found := false
		for _, ref := range c.Gates[cp[i]].Inputs {
			if ref == cp[i-1] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("critical path edge %d→%d is not a netlist edge", cp[i-1], cp[i])
		}
	}
	// Path delay must sum to the critical delay.
	sum := 0.0
	for _, g := range cp {
		sum += r.DelayS[g]
	}
	if math.Abs(sum-r.MaxDelayS) > 1e-15 {
		t.Fatalf("critical path delays sum to %g, want %g", sum, r.MaxDelayS)
	}
}

func TestSetPeriodFromCritical(t *testing.T) {
	c := chain(t, 4)
	p, err := SetPeriodFromCritical(c, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(c)
	if math.Abs(p-1.2*r.MaxDelayS) > 1e-18 {
		t.Fatalf("period %g, want 1.2× critical %g", p, r.MaxDelayS)
	}
	if _, err := SetPeriodFromCritical(c, 0.9); err == nil {
		t.Fatalf("guard < 1 must error")
	}
}

func TestPathUtilization(t *testing.T) {
	c := genCircuit(t, 800, 3)
	r := Analyze(c)
	u0 := r.PathUtilization(c, 0.0)
	u1 := r.PathUtilization(c, 1.0)
	uHalf := r.PathUtilization(c, 0.5)
	if u0 != 0 || u1 != 1 {
		t.Fatalf("utilization bounds broken: %g, %g", u0, u1)
	}
	if uHalf <= 0 || uHalf >= 1 {
		t.Fatalf("half-cycle utilization = %g, expected interior value", uHalf)
	}
}

func TestSlackHistogram(t *testing.T) {
	c := genCircuit(t, 500, 4)
	r := Analyze(c)
	h := r.SlackHistogram(10)
	total := 0
	for _, n := range h {
		total += n
	}
	if total != len(c.Gates) {
		t.Fatalf("histogram counts %d, want %d", total, len(c.Gates))
	}
}

func TestIncrementalDuplicateFanins(t *testing.T) {
	// A driver feeding two pins of the same gate: duplicate seeds must not
	// corrupt the rollback (regression for the flow-violation bug).
	tech := mustTech(t, 100, 0.65)
	c := &netlist.Circuit{Tech: tech, NumPIs: 1}
	c.Gates = []netlist.Gate{
		{ID: 0, Kind: gate.Inv, Inputs: []int{netlist.PI(0)}, Size: 2, WireCapF: 1e-15},
		{ID: 1, Kind: gate.Nand, Inputs: []int{0, 0}, Size: 2, WireCapF: 1e-15},
	}
	c.Rebuild()
	if _, err := SetPeriodFromCritical(c, 1.0); err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(c)
	g := &c.Gates[1]
	old := g.Size
	g.Size = 0.5 // big slowdown on the (zero-slack) critical path → reject
	if inc.TryUpdate(1, 0, 0) {
		t.Fatalf("edit on a zero-slack path should be rejected")
	}
	g.Size = old
	full := Analyze(c)
	for k := range full.DelayS {
		if math.Abs(full.DelayS[k]-inc.DelayS[k]) > 1e-18 {
			t.Fatalf("rollback left stale delay at gate %d", k)
		}
	}
}

// The optimizer inner loop — trials, resize trials with their rollbacks,
// and the per-round slack snapshot — must not allocate once the engine's
// buffers have grown.
func TestIncrementalAllocationFree(t *testing.T) {
	c := genCircuit(t, 600, 8)
	inc := NewIncremental(c)
	trial := func(i int) {
		g := &c.Gates[i]
		old := g.Size
		g.Size = old * 0.8
		if !inc.TryResize(i) {
			g.Size = old
		}
		g.VthClass = 1 - g.VthClass
		if !inc.TryUpdate(i) {
			g.VthClass = 1 - g.VthClass
		}
	}
	// A warm-up pass over every gate grows the undo logs.
	for _, i := range inc.SlackOrder() {
		trial(i)
	}
	next := 0
	if a := testing.AllocsPerRun(300, func() {
		trial(next % len(c.Gates))
		next++
	}); a != 0 {
		t.Fatalf("a trial allocates %v times", a)
	}
	if a := testing.AllocsPerRun(5, func() { inc.SlackOrder() }); a != 0 {
		t.Fatalf("a slack snapshot allocates %v times", a)
	}
}

func TestIncrementalMetAndWorstArrival(t *testing.T) {
	c := genCircuit(t, 300, 6)
	inc := NewIncremental(c)
	full := Analyze(c)
	if !inc.Met() {
		t.Fatalf("fresh incremental view must meet timing")
	}
	if math.Abs(inc.WorstArrival()-full.MaxDelayS) > 1e-15 {
		t.Fatalf("worst arrival mismatch")
	}
	if top := inc.SlackOrder()[0]; full.SlackS[top] != slices.Max(full.SlackS) {
		t.Fatalf("slack order starts at gate %d (slack %g), not at the most slack %g",
			top, full.SlackS[top], slices.Max(full.SlackS))
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
