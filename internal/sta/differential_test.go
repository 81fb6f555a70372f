package sta_test

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"nanometer/internal/cvs"
	"nanometer/internal/device"
	"nanometer/internal/dualvth"
	"nanometer/internal/experiments"
	"nanometer/internal/gate"
	"nanometer/internal/libopt"
	"nanometer/internal/netlist"
	"nanometer/internal/resize"
	"nanometer/internal/sta"
)

// refEngine is the reference the production engine is pinned to: the
// straightforward incremental STA (map-based undo logs and in-queue marks,
// a container/heap queue) plus the per-round slack snapshot the optimizers
// used to take (a full Analyze and sort.Slice).
type refEngine struct {
	c              *netlist.Circuit
	arrival, delay []float64
	period, eps    float64
}

func newRefEngine(c *netlist.Circuit) *refEngine {
	r := sta.Analyze(c)
	return &refEngine{c: c, arrival: r.ArrivalS, delay: r.DelayS, period: r.PeriodS, eps: r.PeriodS * 1e-12}
}

type idHeap []int

func (h idHeap) Len() int            { return len(h) }
func (h idHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h idHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *idHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *idHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func (e *refEngine) TryUpdate(changed ...int) bool {
	oldArr := map[int]float64{}
	oldDelay := map[int]float64{}
	h := &idHeap{}
	inHeap := map[int]bool{}
	push := func(i int) {
		if !inHeap[i] {
			inHeap[i] = true
			heap.Push(h, i)
		}
	}
	for _, i := range changed {
		if _, seen := oldDelay[i]; !seen {
			oldDelay[i] = e.delay[i]
		}
		e.delay[i] = e.c.GateDelay(&e.c.Gates[i])
		push(i)
	}
	ok := true
	for h.Len() > 0 {
		i := heap.Pop(h).(int)
		inHeap[i] = false
		g := &e.c.Gates[i]
		in := 0.0
		for _, ref := range g.Inputs {
			if _, isPI := netlist.IsPI(ref); isPI {
				continue
			}
			if a := e.arrival[ref]; a > in {
				in = a
			}
		}
		newArr := in + e.delay[i]
		if newArr == e.arrival[i] {
			continue
		}
		if _, saved := oldArr[i]; !saved {
			oldArr[i] = e.arrival[i]
		}
		e.arrival[i] = newArr
		if g.IsPO && newArr > e.period+e.eps {
			ok = false
			break
		}
		for _, fo := range g.Fanouts {
			push(fo)
		}
	}
	if !ok {
		for i, a := range oldArr {
			e.arrival[i] = a
		}
		for i, d := range oldDelay {
			e.delay[i] = d
		}
	}
	return ok
}

func (e *refEngine) TryResize(i int) bool {
	seeds := []int{i}
	for _, ref := range e.c.Gates[i].Inputs {
		if _, isPI := netlist.IsPI(ref); !isPI {
			seeds = append(seeds, ref)
		}
	}
	return e.TryUpdate(seeds...)
}

func (e *refEngine) SlackOrder() []int {
	snap := sta.Analyze(e.c)
	order := make([]int, len(e.c.Gates))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return snap.SlackS[order[a]] > snap.SlackS[order[b]]
	})
	return order
}

// engine is what the optimizer loops below need from either engine.
type engine interface {
	TryUpdate(changed ...int) bool
	TryResize(i int) bool
	SlackOrder() []int
}

// move is one trial an optimizer made: the gate it edited and whether the
// engine accepted the edit.
type move struct {
	gate int
	ok   bool
}

// sizeLoop is the most-slack-first greedy resize.Downsize and
// libopt.SizeWithLibrary run: next proposes a smaller size or declines.
func sizeLoop(c *netlist.Circuit, e engine, rounds int, next func(size float64) (float64, bool)) []move {
	var moves []move
	for r := 0; r < rounds; r++ {
		moved := 0
		for _, i := range e.SlackOrder() {
			g := &c.Gates[i]
			s, ok := next(g.Size)
			if !ok {
				continue
			}
			old := g.Size
			g.Size = s
			ok = e.TryResize(i)
			moves = append(moves, move{i, ok})
			if ok {
				moved++
			} else {
				g.Size = old
			}
		}
		if moved == 0 {
			break
		}
	}
	return moves
}

// cvsLoop is cvs.Assign's reverse-topological supply assignment.
func cvsLoop(c *netlist.Circuit, e engine, clustering bool) []move {
	var moves []move
	for i := len(c.Gates) - 1; i >= 0; i-- {
		g := &c.Gates[i]
		lowFanout := false
		for _, fo := range g.Fanouts {
			lowFanout = lowFanout || c.Gates[fo].VddClass == 0
		}
		if clustering && lowFanout {
			continue
		}
		g.VddClass = 1
		g.NeedsLC = g.IsPO || (!clustering && lowFanout)
		ok := e.TryUpdate(i)
		moves = append(moves, move{i, ok})
		if !ok {
			g.VddClass = 0
			g.NeedsLC = false
		}
	}
	return moves
}

// dualVthLoop is dualvth.Assign's greedy over candidates ordered by
// leakage saved per delay added, or by slack.
func dualVthLoop(c *netlist.Circuit, e engine, order dualvth.Order) []move {
	base := sta.Analyze(c)
	type cand struct {
		id    int
		score float64
	}
	var cands []cand
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.VthClass != 0 {
			continue
		}
		score := base.SlackS[i]
		if order == dualvth.BySensitivity {
			load := c.LoadOn(g)
			dd := c.Tech.CellDelay(g.Kind, len(g.Inputs), g.VddClass, 1, g.Size, load) -
				c.Tech.CellDelay(g.Kind, len(g.Inputs), g.VddClass, 0, g.Size, load)
			if dd <= 0 {
				dd = 1e-18
			}
			score = (c.Tech.CellLeakage(g.Kind, len(g.Inputs), g.VddClass, 0, g.Size) -
				c.Tech.CellLeakage(g.Kind, len(g.Inputs), g.VddClass, 1, g.Size)) / dd
		}
		cands = append(cands, cand{i, score})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].score > cands[b].score })
	var moves []move
	for _, cd := range cands {
		c.Gates[cd.id].VthClass = 1
		ok := e.TryUpdate(cd.id)
		moves = append(moves, move{cd.id, ok})
		if !ok {
			c.Gates[cd.id].VthClass = 0
		}
	}
	return moves
}

func testCircuit(t *testing.T, gates int, seed int64, size, guard float64) *netlist.Circuit {
	t.Helper()
	tech, err := netlist.NewTechIn(device.BaseLab(), 100, 0.65)
	if err != nil {
		t.Fatal(err)
	}
	p := netlist.DefaultGenParams()
	p.Gates = gates
	p.Levels = 30
	p.ShortPathFraction = 0.5
	p.Seed = seed
	c, err := netlist.Generate(tech, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Gates {
		c.Gates[i].Size = size
	}
	if _, err := sta.SetPeriodFromCritical(c, guard); err != nil {
		t.Fatal(err)
	}
	return c
}

// sameGates reports the first gate whose optimizer-controlled fields
// differ between two clones, bit for bit.
func sameGates(t *testing.T, label string, got, want *netlist.Circuit) {
	t.Helper()
	for i := range want.Gates {
		g, w := &got.Gates[i], &want.Gates[i]
		if math.Float64bits(g.Size) != math.Float64bits(w.Size) || g.VddClass != w.VddClass ||
			g.VthClass != w.VthClass || g.NeedsLC != w.NeedsLC {
			t.Fatalf("%s: gate %d differs: size %v/%v vdd %d/%d vth %d/%d lc %v/%v", label, i,
				g.Size, w.Size, g.VddClass, w.VddClass, g.VthClass, w.VthClass, g.NeedsLC, w.NeedsLC)
		}
	}
}

// TestOptimizersMatchReferenceEngine runs each of the four optimizers'
// move loops under the production engine and the reference engine and
// requires bit-identical accepted-move sequences and final netlists; the
// production optimizer itself must land on the same netlist, which pins
// the loops here to the real ones.
func TestOptimizersMatchReferenceEngine(t *testing.T) {
	rich := libopt.Geometric("rich", 1, 64, 1.3)
	cases := []struct {
		name  string
		size  float64
		guard float64
		loop  func(c *netlist.Circuit, e engine) []move
		prod  func(c *netlist.Circuit) error
	}{
		{"resize", 2, 1.15,
			func(c *netlist.Circuit, e engine) []move {
				o := resize.DefaultOptions()
				return sizeLoop(c, e, o.Rounds, func(s float64) (float64, bool) { return s * o.Step, s*o.Step >= o.MinSize })
			},
			func(c *netlist.Circuit) error { _, err := resize.Downsize(c, resize.DefaultOptions()); return err }},
		{"libopt-rich", rich.Sizes[sort.SearchFloat64s(rich.Sizes, 8)], 1.15,
			func(c *netlist.Circuit, e engine) []move { return sizeLoop(c, e, 64, rich.NextBelow) },
			func(c *netlist.Circuit) error { _, err := libopt.SizeWithLibrary(c, rich, 0); return err }},
		{"libopt-continuous", 8, 1.15,
			func(c *netlist.Circuit, e engine) []move {
				return sizeLoop(c, e, 64, libopt.Continuous(0.25).NextBelow)
			},
			func(c *netlist.Circuit) error {
				_, err := libopt.SizeWithLibrary(c, libopt.Continuous(0.25), 0)
				return err
			}},
		{"cvs-clustered", 2, 1.15,
			func(c *netlist.Circuit, e engine) []move { return cvsLoop(c, e, true) },
			func(c *netlist.Circuit) error { _, err := cvs.Assign(c, cvs.DefaultOptions()); return err }},
		{"cvs-unclustered", 2, 1.15,
			func(c *netlist.Circuit, e engine) []move { return cvsLoop(c, e, false) },
			func(c *netlist.Circuit) error {
				o := cvs.DefaultOptions()
				o.Clustering = false
				_, err := cvs.Assign(c, o)
				return err
			}},
		{"dualvth-sensitivity", 2, 1.0,
			func(c *netlist.Circuit, e engine) []move { return dualVthLoop(c, e, dualvth.BySensitivity) },
			func(c *netlist.Circuit) error { _, err := dualvth.Assign(c, dualvth.Options{}); return err }},
		{"dualvth-slack", 2, 1.0,
			func(c *netlist.Circuit, e engine) []move { return dualVthLoop(c, e, dualvth.BySlack) },
			func(c *netlist.Circuit) error {
				_, err := dualvth.Assign(c, dualvth.Options{Order: dualvth.BySlack})
				return err
			}},
	}
	for _, tc := range cases {
		for _, seed := range []int64{7, 11} {
			base := testCircuit(t, 1200, seed, tc.size, tc.guard)
			prodC, newC, refC := base.Clone(), base.Clone(), base.Clone()
			if err := tc.prod(prodC); err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			newEng := sta.NewIncremental(newC)
			got := tc.loop(newC, newEng)
			want := tc.loop(refC, newRefEngine(refC))
			for k := 0; k < min(len(got), len(want)); k++ {
				if got[k] != want[k] {
					t.Fatalf("%s seed %d: move %d is %v, reference %v", tc.name, seed, k, got[k], want[k])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: %d moves, reference %d", tc.name, seed, len(got), len(want))
			}
			accepted := 0
			for _, m := range want {
				if m.ok {
					accepted++
				}
			}
			if accepted == 0 || accepted == len(want) {
				t.Fatalf("%s seed %d: %d of %d moves accepted; the case should exercise both outcomes", tc.name, seed, accepted, len(want))
			}
			sameGates(t, tc.name+" reference", newC, refC)
			sameGates(t, tc.name+" optimizer", prodC, refC)
			full := sta.Analyze(newC)
			for i := range full.ArrivalS {
				if math.Float64bits(newEng.ArrivalS[i]) != math.Float64bits(full.ArrivalS[i]) ||
					math.Float64bits(newEng.DelayS[i]) != math.Float64bits(full.DelayS[i]) {
					t.Fatalf("%s seed %d: tracked timing of gate %d differs from a fresh Analyze", tc.name, seed, i)
				}
			}
		}
	}
}

// The incremental engine must agree bit for bit with the reference engine
// and with full re-analysis under a random edit sequence, rollbacks must
// restore the previous state exactly, and its slack order must be the one
// a full Analyze sorted by sort.Slice gives.
func TestIncrementalMatchesFullSTA(t *testing.T) {
	for _, seed := range []int64{5, 6, 7} {
		c := testCircuit(t, 600, seed, 2, 1.1)
		refC := c.Clone()
		inc, ref := sta.NewIncremental(c), newRefEngine(refC)
		rng := rand.New(rand.NewSource(seed + 4))
		accepted, rejected := 0, 0
		for step := 0; step < 300; step++ {
			i := rng.Intn(len(c.Gates))
			g := &c.Gates[i]
			oldSize, oldVth, oldVdd := g.Size, g.VthClass, g.VddClass
			switch rng.Intn(3) {
			case 0:
				g.Size = math.Max(0.5, g.Size*(0.6+rng.Float64()))
			case 1:
				g.VthClass = 1 - g.VthClass
			case 2:
				g.VddClass = 1 - g.VddClass
			}
			refC.Gates[i] = *g
			ok := inc.TryResize(i)
			if ok != ref.TryResize(i) {
				t.Fatalf("seed %d step %d: engines disagree on gate %d", seed, step, i)
			}
			if ok {
				accepted++
			} else {
				g.Size, g.VthClass, g.VddClass = oldSize, oldVth, oldVdd
				refC.Gates[i] = *g
				rejected++
			}
			// Invariant: both engines match a fresh full analysis exactly.
			full := sta.Analyze(c)
			for k := range full.ArrivalS {
				for _, v := range [][2]float64{
					{inc.ArrivalS[k], full.ArrivalS[k]}, {ref.arrival[k], full.ArrivalS[k]},
					{inc.DelayS[k], full.DelayS[k]}, {ref.delay[k], full.DelayS[k]},
				} {
					if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
						t.Fatalf("seed %d step %d: gate %d tracked %g, full analysis %g", seed, step, k, v[0], v[1])
					}
				}
			}
			if !full.Met() {
				t.Fatalf("seed %d step %d: incremental accepted a violating state", seed, step)
			}
			if step%25 == 0 && !slices.Equal(inc.SlackOrder(), ref.SlackOrder()) {
				t.Fatalf("seed %d step %d: slack order differs from sort.Slice over Analyze", seed, step)
			}
		}
		if accepted == 0 || rejected == 0 {
			t.Fatalf("seed %d: edit mix should include accepts and rejects (%d/%d)", seed, accepted, rejected)
		}
	}
}

// handCircuit builds a netlist from explicit gates (unit wire load on
// every net) and clocks it at guard × its critical delay.
func handCircuit(t *testing.T, numPIs int, gates []netlist.Gate, guard float64) *netlist.Circuit {
	t.Helper()
	tech, err := netlist.NewTechIn(device.BaseLab(), 100, 0.65)
	if err != nil {
		t.Fatal(err)
	}
	c := &netlist.Circuit{Tech: tech, NumPIs: numPIs, PIActivity: 0.1, Gates: gates}
	for i := range c.Gates {
		c.Gates[i].ID, c.Gates[i].Size, c.Gates[i].WireCapF = i, 2, 1e-15
	}
	c.Rebuild()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := sta.SetPeriodFromCritical(c, guard); err != nil {
		t.Fatal(err)
	}
	return c
}

// sameTiming fails unless the engine's arrivals and delays equal a fresh
// Analyze's bit for bit.
func sameTiming(t *testing.T, label string, c *netlist.Circuit, inc *sta.Incremental) {
	t.Helper()
	full := sta.Analyze(c)
	for i := range full.ArrivalS {
		if math.Float64bits(inc.ArrivalS[i]) != math.Float64bits(full.ArrivalS[i]) ||
			math.Float64bits(inc.DelayS[i]) != math.Float64bits(full.DelayS[i]) {
			t.Fatalf("%s: gate %d tracked arrival %g delay %g, fresh Analyze %g, %g", label, i,
				inc.ArrivalS[i], inc.DelayS[i], full.ArrivalS[i], full.DelayS[i])
		}
	}
}

// The fanout pruning must hold where a fanin max is tied or its argmax
// moves: a Nand fed twice by one driver, a Nand fed by two equal drivers,
// the argmax driver speeding up below the other, and a reject at a
// primary output in the middle of a cone, after which the rolled-back
// state must keep pruning correctly. Each trial is replayed on the
// reference engine and checked against a fresh Analyze.
func TestIncrementalPruningEdgeCases(t *testing.T) {
	c := handCircuit(t, 2, []netlist.Gate{
		{Kind: gate.Inv, Inputs: []int{netlist.PI(0)}}, // 0: driver A
		{Kind: gate.Inv, Inputs: []int{netlist.PI(0)}}, // 1: driver B, tied with A
		{Kind: gate.Nand, Inputs: []int{0, 1}},         // 2: two equal drivers
		{Kind: gate.Inv, Inputs: []int{netlist.PI(1)}}, // 3: driver C
		{Kind: gate.Nand, Inputs: []int{3, 3}},         // 4: one driver on both pins
		{Kind: gate.Nor, Inputs: []int{2, 4}},          // 5: primary output mid-cone
		{Kind: gate.Inv, Inputs: []int{5}},             // 6
		{Kind: gate.Inv, Inputs: []int{6}},             // 7
	}, 1.02)
	c.Gates[5].IsPO = true
	refC := c.Clone()
	inc, ref := sta.NewIncremental(c), newRefEngine(refC)
	if inc.ArrivalS[0] != inc.ArrivalS[1] {
		t.Fatalf("drivers A and B should tie: %g vs %g", inc.ArrivalS[0], inc.ArrivalS[1])
	}
	steps := []struct {
		what   string
		gate   int
		size   float64
		accept bool
	}{
		{"speed A, breaking the tie below B", 0, 4, true},
		{"speed B, the argmax moving down", 1, 4, true},
		{"slow A back above B", 0, 3, true},
		{"speed the doubled driver", 3, 3, true},
		{"slow the doubled Nand, duplicate seeds", 4, 1.5, true},
		{"slow the mid-cone output past the period", 5, 0.25, false},
		{"slow the two-driver Nand past the period", 2, 0.25, false},
		{"slow the doubled Nand after the reject", 4, 1.2, true},
		{"speed A after the reject", 0, 6, true},
		{"slow B to the argmax again", 1, 2.5, true},
		{"slow the doubled driver past the period", 3, 0.25, false},
		{"grow the tail, loading its driver past the period", 7, 4, false},
		{"speed the doubled driver further", 3, 4, true},
	}
	for k, s := range steps {
		label := fmt.Sprintf("step %d (%s)", k, s.what)
		old := c.Gates[s.gate].Size
		c.Gates[s.gate].Size, refC.Gates[s.gate].Size = s.size, s.size
		ok, refOK := inc.TryResize(s.gate), ref.TryResize(s.gate)
		if ok != refOK || ok != s.accept {
			t.Fatalf("%s: accepted %v, reference %v, want %v", label, ok, refOK, s.accept)
		}
		if !ok {
			c.Gates[s.gate].Size, refC.Gates[s.gate].Size = old, old
		}
		sameTiming(t, label, c, inc)
		for i := range ref.arrival {
			if math.Float64bits(ref.arrival[i]) != math.Float64bits(inc.ArrivalS[i]) {
				t.Fatalf("%s: gate %d arrival %g, reference %g", label, i, inc.ArrivalS[i], ref.arrival[i])
			}
		}
	}
}

// c3's three library loops on the default circuit profile, replayed
// through the sizing greedy, must make exactly the trials and accepts the
// report has always made, and land where libopt.SizeWithLibrary lands.
func TestLibraryLoopsTrialCount(t *testing.T) {
	s := experiments.DefaultCircuitSetup()
	base := testCircuit(t, s.Gates, s.Seed, 8, s.PeriodGuard)
	trials, accepts := 0, 0
	for _, lib := range []libopt.Library{
		libopt.Geometric("coarse legacy (min 4, ratio 2)", 4, 64, 2),
		libopt.Geometric("rich modern (min 1, ratio 1.3)", 1, 64, 1.3),
		libopt.Continuous(0.25),
	} {
		c, prodC := base.Clone(), base.Clone()
		if !lib.IsContinuous() {
			for i := range c.Gates {
				c.Gates[i].Size = lib.Sizes[sort.SearchFloat64s(lib.Sizes, c.Gates[i].Size)]
			}
		}
		for _, m := range sizeLoop(c, sta.NewIncremental(c), 64, lib.NextBelow) {
			trials++
			if m.ok {
				accepts++
			}
		}
		if _, err := libopt.SizeWithLibrary(prodC, lib, 0); err != nil {
			t.Fatal(err)
		}
		sameGates(t, lib.Name, c, prodC)
	}
	if trials != 103159 || accepts != 70972 {
		t.Fatalf("%d trials, %d accepted; want 103159, 70972", trials, accepts)
	}
}

// A fanin can move by less than the rounding of its fanout's sum, so the
// fanout keeps its arrival while its fanin max changes. The engine must
// still record the new max: when that fanin later drops, the fanout has to
// be revisited.
func TestIncrementalFaninMaxTracksRoundedArrivals(t *testing.T) {
	c := handCircuit(t, 2, []netlist.Gate{
		{Kind: gate.Inv, Inputs: []int{netlist.PI(0)}}, // 0: the argmax driver
		{Kind: gate.Inv, Inputs: []int{netlist.PI(1)}}, // 1
		{Kind: gate.Nand, Inputs: []int{0, 1}},         // 2
		{Kind: gate.Inv, Inputs: []int{2}},             // 3
	}, 1.5)
	c.Gates[1].Size = 8
	if _, err := sta.SetPeriodFromCritical(c, 1.5); err != nil {
		t.Fatal(err)
	}
	inc := sta.NewIncremental(c)
	// Nudge driver 0's wire load an ulp at a time until its arrival moves
	// and gate 2's does not.
	found := false
	for k := 0; k < 64 && !found; k++ {
		before0, before2 := inc.ArrivalS[0], inc.ArrivalS[2]
		c.Gates[0].WireCapF = math.Nextafter(c.Gates[0].WireCapF, 1)
		if !inc.TryUpdate(0) {
			t.Fatalf("nudge %d rejected", k)
		}
		sameTiming(t, fmt.Sprintf("nudge %d", k), c, inc)
		found = inc.ArrivalS[0] != before0 && inc.ArrivalS[2] == before2
	}
	if !found {
		t.Fatal("no nudge moved driver 0 without moving gate 2; the case exercises nothing")
	}
	c.Gates[0].Size = 8
	if !inc.TryResize(0) {
		t.Fatal("speeding the argmax driver rejected")
	}
	sameTiming(t, "argmax driver sped up", c, inc)
}
