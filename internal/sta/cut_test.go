package sta_test

import (
	"fmt"
	"math"
	"testing"

	"nanometer/internal/gate"
	"nanometer/internal/netlist"
	"nanometer/internal/sta"
)

// cutTrial is one trial of the seed-cut tests: a new output wire load on a
// gate (a TryUpdate of that gate alone) or a new size (a TryResize), after
// a fresh slack pass when slacks is set. cut says whether the engine must
// reject the trial at a seed's critical chain rather than by propagating
// it to a late primary output.
type cutTrial struct {
	what        string
	slacks      bool
	gate        int
	wireF, size float64
	accept, cut bool
}

// replayCuts runs the trials on the engine and on the reference engine
// and fails unless every verdict matches the reference and the expected
// one, the cut counter moves exactly on the expected cuts, and the
// tracked timing equals a fresh Analyze and the reference's arrivals bit
// for bit after every trial. It returns the arrivals each trial wrote.
func replayCuts(t *testing.T, c *netlist.Circuit, trials []cutTrial) []int {
	t.Helper()
	refC := c.Clone()
	inc, ref := sta.NewIncremental(c), newRefEngine(refC)
	var rewrites []int
	for k, tr := range trials {
		label := fmt.Sprintf("trial %d (%s)", k, tr.what)
		if tr.slacks {
			inc.SlackOrder()
		}
		g, rg := &c.Gates[tr.gate], &refC.Gates[tr.gate]
		oldWire, oldSize := g.WireCapF, g.Size
		cuts, written := inc.Cuts, inc.Rewrites
		var ok, refOK bool
		if tr.size > 0 {
			g.Size, rg.Size = tr.size, tr.size
			ok, refOK = inc.TryResize(tr.gate), ref.TryResize(tr.gate)
		} else {
			g.WireCapF, rg.WireCapF = tr.wireF, tr.wireF
			ok, refOK = inc.TryUpdate(tr.gate), ref.TryUpdate(tr.gate)
		}
		if ok != refOK || ok != tr.accept {
			t.Fatalf("%s: accepted %v, reference %v, want %v", label, ok, refOK, tr.accept)
		}
		if !ok {
			g.WireCapF, g.Size = oldWire, oldSize
			rg.WireCapF, rg.Size = oldWire, oldSize
		}
		want := 0
		if tr.cut {
			want = 1
		}
		if cut := inc.Cuts - cuts; cut != want {
			t.Fatalf("%s: %d cuts, want %d", label, cut, want)
		}
		sameTiming(t, label, c, inc)
		for i := range ref.arrival {
			if math.Float64bits(ref.arrival[i]) != math.Float64bits(inc.ArrivalS[i]) {
				t.Fatalf("%s: gate %d arrival %g, reference %g", label, i, inc.ArrivalS[i], ref.arrival[i])
			}
		}
		rewrites = append(rewrites, inc.Rewrites-written)
	}
	if inc.Trials != len(trials) {
		t.Fatalf("engine counted %d trials, want %d", inc.Trials, len(trials))
	}
	return rewrites
}

// A seed fans out to two paths, A (three gates) and B (two, but slowly
// loaded), and A is critical when the slack pass records the chain. No
// trial is cut before the first pass. After it, an accepted speed-up of A
// leaves the recorded chain on A while B is now critical: a trial that
// misses only on B is still rejected, by propagation, and one that misses
// on A too is cut. A seed whose arrival falls is never cut.
func TestIncrementalCutOnStaleChain(t *testing.T) {
	const fF = 1e-15
	c := handCircuit(t, 1, []netlist.Gate{
		{Kind: gate.Inv, Inputs: []int{netlist.PI(0)}}, // 0: the seed
		{Kind: gate.Inv, Inputs: []int{0}},             // 1: A
		{Kind: gate.Inv, Inputs: []int{1}},             // 2: A
		{Kind: gate.Inv, Inputs: []int{2}},             // 3: A's output
		{Kind: gate.Inv, Inputs: []int{0}},             // 4: B
		{Kind: gate.Inv, Inputs: []int{4}},             // 5: B's output
	}, 1.1)
	c.Gates[3].IsPO, c.Gates[5].IsPO = true, true
	c.Gates[5].WireCapF = 3.8 * fF
	if _, err := sta.SetPeriodFromCritical(c, 1.1); err != nil {
		t.Fatal(err)
	}
	if r := sta.Analyze(c); r.SlackS[1] >= r.SlackS[4] || r.ArrivalS[3] <= r.ArrivalS[5] {
		t.Fatalf("path A should be critical: slack %g vs B's %g", r.SlackS[1], r.SlackS[4])
	}
	rewrites := replayCuts(t, c, []cutTrial{
		{what: "slow the seed past A's slack before any slack pass", gate: 0, wireF: 4 * fF},
		{what: "the same after a slack pass", slacks: true, gate: 0, wireF: 4 * fF, cut: true},
		{what: "speed A below B", gate: 2, wireF: 0.1 * fF, accept: true},
		{what: "slow the seed past B's slack only", gate: 0, wireF: 2.7 * fF},
		{what: "slow the seed past A's slack too", gate: 0, wireF: 4 * fF, cut: true},
		{what: "speed the seed", gate: 0, wireF: 0.5 * fF, accept: true},
	})
	if r := withWire(c, 0, 2.7*fF); r.ArrivalS[3] > r.PeriodS || r.ArrivalS[5] <= r.PeriodS {
		t.Fatalf("the seed at 2.7 fF should miss on B only: A %g, B %g, period %g", r.ArrivalS[3], r.ArrivalS[5], r.PeriodS)
	}
	// The cuts stop at the seed, the one arrival written; the uncut
	// rejects propagate into the cone.
	if rewrites[1] != 1 || rewrites[4] != 1 || rewrites[0] < 4 || rewrites[3] < 4 {
		t.Fatalf("arrivals written per trial %v", rewrites)
	}
}

// A primary output in the middle of a chain does not end it: its fanout
// set its required time, so the chain runs on to the output at its end.
// A trial that keeps the middle output in time but not the last is cut at
// the seed; one that misses at the middle output is cut as well.
func TestIncrementalCutPastMidChainOutput(t *testing.T) {
	const fF = 1e-15
	c := handCircuit(t, 1, []netlist.Gate{
		{Kind: gate.Inv, Inputs: []int{netlist.PI(0)}}, // 0: the seed
		{Kind: gate.Inv, Inputs: []int{0}},             // 1: output mid-chain
		{Kind: gate.Inv, Inputs: []int{1}},             // 2
		{Kind: gate.Inv, Inputs: []int{2}},             // 3: output at the end
	}, 1.1)
	c.Gates[1].IsPO, c.Gates[3].IsPO = true, true
	replayCuts(t, c, []cutTrial{
		{what: "slow the seed past the end's slack", slacks: true, gate: 0, wireF: 2.5 * fF, cut: true},
		{what: "slow the seed past the middle output's slack", gate: 0, wireF: 12 * fF, cut: true},
		{what: "slow the seed within its slack", gate: 0, wireF: 1.5 * fF, accept: true},
	})
	if r := withWire(c, 0, 2.5*fF); r.ArrivalS[1] > r.PeriodS || r.ArrivalS[3] <= r.PeriodS {
		t.Fatalf("the seed at 2.5 fF should miss at the end only: %g, %g, period %g", r.ArrivalS[1], r.ArrivalS[3], r.PeriodS)
	}
	if r := withWire(c, 0, 12*fF); r.ArrivalS[1] <= r.PeriodS {
		t.Fatalf("the seed at 12 fF should miss at the middle output: %g, period %g", r.ArrivalS[1], r.PeriodS)
	}
}

// withWire analyzes a copy of c with gate i's output wire load set to w.
func withWire(c *netlist.Circuit, i int, w float64) *sta.Result {
	c = c.Clone()
	c.Gates[i].WireCapF = w
	return sta.Analyze(c)
}

// A size change seeds the gate and the gate driving it, and their delays
// move opposite ways. Upsizing a heavily loaded gate on a zero-slack path
// slows the driving gate, whose arrival rises, but speeds the gate by
// more: the driving gate's chain must add the gate's new delay, not its
// old one, or the accepted trial would be cut. Downsizing the gate speeds
// the driving gate (its arrival falls, and it is not walked) and is cut at
// the gate, after two arrivals are written.
func TestIncrementalCutReadsTrialDelays(t *testing.T) {
	const fF = 1e-15
	c := handCircuit(t, 1, []netlist.Gate{
		{Kind: gate.Inv, Inputs: []int{netlist.PI(0)}}, // 0: drives gate 1
		{Kind: gate.Inv, Inputs: []int{0}},             // 1: loaded gate
		{Kind: gate.Inv, Inputs: []int{1}},             // 2: output
	}, 1)
	c.Gates[2].IsPO = true
	c.Gates[1].WireCapF = 10 * fF
	if _, err := sta.SetPeriodFromCritical(c, 1); err != nil {
		t.Fatal(err)
	}
	before := sta.Analyze(c)
	rewrites := replayCuts(t, c, []cutTrial{
		{what: "upsize the loaded gate", slacks: true, gate: 1, size: 8, accept: true},
		{what: "downsize it past the period", gate: 1, size: 1, cut: true},
	})
	if after := sta.Analyze(c); after.DelayS[0] <= before.DelayS[0] {
		t.Fatalf("upsizing should slow gate 0: %g -> %g", before.DelayS[0], after.DelayS[0])
	}
	if rewrites[1] != 2 {
		t.Fatalf("the cut wrote %d arrivals, want 2 (gate 0 falling, then gate 1)", rewrites[1])
	}
}
