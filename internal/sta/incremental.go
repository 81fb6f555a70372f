package sta

import (
	"math/bits"
	"slices"

	"nanometer/internal/netlist"
)

// Incremental is an incremental timing view of a circuit that supports
// trial edits with rollback — the engine under the CVS, dual-Vth, and
// re-sizing greedy loops. The caller mutates gate fields (Vdd/Vth class,
// size), then calls TryUpdate with the set of gates whose *delay* may have
// changed; the engine repropagates arrivals through the affected cone and
// reports whether the period still holds. Rejected edits are rolled back by
// the engine (the caller un-mutates its own fields). The circuit's
// structure — inputs, fanouts, primary outputs — must not change while the
// view is in use.
//
// A trial allocates nothing once the engine's buffers have grown. The
// pending set is a bitset over gate IDs scanned in ID order: gates are
// stored topologically, so ID order is a valid propagation order and each
// gate is visited at most once per trial. A fanout is queued only when the
// moved arrival can change its fanin max, and a trial that a seed's
// critical chain already shows missing the period stops at that seed (see
// TryUpdate). The rollback state is a pair of dense undo logs truncated at
// the start of every trial.
type Incremental struct {
	c *netlist.Circuit
	// ArrivalS and DelayS mirror the Result fields and stay current.
	ArrivalS, DelayS []float64
	// inArr[i] is gate i's max gate-driven fanin arrival (0 with none),
	// the value Analyze adds gate i's delay to.
	inArr []float64
	// PeriodS is the constraint; deadline is the latest arrival that meets
	// it (see Result.Met).
	PeriodS  float64
	deadline float64

	// The topology, flattened once: the gate-driven fanins of gate i are
	// fanin[faninAt[i]:faninAt[i+1]], its fanouts likewise, and po[i]
	// marks a primary output.
	faninAt, fanin, fanoutAt, fanout []int32
	po                               []bool
	// crit[i] is gate i's critical fanout as of the last Slacks (see
	// backward), -1 at the end of a chain and everywhere before the first.
	crit []int32

	// Trials counts TryUpdate calls and Accepts the accepted ones; Cuts
	// counts the rejects decided on a seed's critical chain and Rewrites
	// the arrivals the trials wrote, kept or rolled back.
	Trials, Accepts, Cuts, Rewrites int

	// pending marks the gates queued for repropagation in the current
	// trial; it is all zero between trials.
	pending []uint64
	// delLog holds the pre-trial value of every delay the current trial
	// overwrote, arrLog that of every arrival and its fanin max.
	delLog []undo
	arrLog []arrUndo
	// seeds and ranked are scratch for TryResize and SlackOrder; slack
	// (Analyze's required-time array, reused) is Slacks' buffer and order
	// SlackOrder's.
	seeds  []int
	ranked []rankedGate
	slack  []float64
	order  []int
}

// undo is one overwritten array slot.
type undo struct {
	i int
	v float64
}

// arrUndo is one gate's overwritten arrival and fanin max.
type arrUndo struct {
	i       int
	arr, in float64
}

// rankedGate pairs a gate with its slack so the sort reads both from one
// place.
type rankedGate struct {
	slack float64
	id    int
}

// NewIncremental analyzes the circuit and returns an incremental view. The
// circuit must currently meet its period.
func NewIncremental(c *netlist.Circuit) *Incremental {
	r := Analyze(c)
	n := len(c.Gates)
	nIn, nOut, maxIn := 0, 0, 0
	for i := range c.Gates {
		g := &c.Gates[i]
		k := 0
		for _, ref := range g.Inputs {
			if _, isPI := netlist.IsPI(ref); !isPI {
				k++
			}
		}
		nIn, nOut, maxIn = nIn+k, nOut+len(g.Fanouts), max(maxIn, k)
	}
	// The five topology arrays share one allocation. delLog and seeds hold
	// a gate and its fanins, the most a TryResize changes. arrLog starts
	// at an eighth of the circuit, more than the cones the sizing and
	// assignment loops' trials reach, and grows past it only for a larger
	// cone. Slacks reuses Analyze's required-time array.
	topo := make([]int32, 2*(n+1)+nIn+nOut+n)
	inc := &Incremental{
		c:        c,
		ArrivalS: r.ArrivalS,
		DelayS:   r.DelayS,
		PeriodS:  r.PeriodS,
		deadline: deadline(r.PeriodS),
		inArr:    make([]float64, n),
		faninAt:  topo[: n+1 : n+1],
		fanoutAt: topo[n+1 : 2*(n+1) : 2*(n+1)],
		fanin:    topo[2*(n+1) : 2*(n+1) : 2*(n+1)+nIn],
		fanout:   topo[2*(n+1)+nIn : 2*(n+1)+nIn : 2*(n+1)+nIn+nOut],
		crit:     topo[2*(n+1)+nIn+nOut:],
		po:       make([]bool, n),
		pending:  make([]uint64, (n+63)/64),
		delLog:   make([]undo, 0, 1+maxIn),
		arrLog:   make([]arrUndo, 0, n/8),
		seeds:    make([]int, 0, 1+maxIn),
		slack:    r.RequiredS,
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		for _, ref := range g.Inputs {
			if _, isPI := netlist.IsPI(ref); !isPI {
				inc.fanin = append(inc.fanin, int32(ref))
				inc.inArr[i] = max(inc.inArr[i], r.ArrivalS[ref])
			}
		}
		for _, fo := range g.Fanouts {
			inc.fanout = append(inc.fanout, int32(fo))
		}
		inc.faninAt[i+1] = int32(len(inc.fanin))
		inc.fanoutAt[i+1] = int32(len(inc.fanout))
		inc.po[i] = g.IsPO
		inc.crit[i] = -1
	}
	return inc
}

// TryUpdate repropagates timing after the caller mutated the given gates.
// It returns ok = true when every primary output still meets the period; in
// that case the edit is committed. When ok = false the engine has already
// restored its arrays and the caller must revert its own field mutations.
//
// When gate i's arrival moves from old to new, fanout f is queued only if
// new > inArr[f] or old == inArr[f]. The test is exact: f lies above i, so
// inArr[f] still holds its pre-trial value, and a fanin that fails both
// tests was strictly below f's max and stays at or below it, so f would
// recompute the arrival it already has.
//
// When a seed (a gate in changed) is visited and its arrival rose, the
// engine walks the seed's critical chain as of the last Slacks, adding
// each chain gate's delay to the seed's new arrival, and rejects the trial
// at once if a sum passes the deadline. The cut is exact. The seed's
// arrival is final when it is visited (its fanins lie below it), every
// delay the trial changes is set before propagation starts, and float +
// and max are monotone, so each sum is a lower bound on the arrival full
// propagation would reach at that chain gate. The chain ends at a primary
// output (see chainMisses), so that output would end late; and since the
// view met the period before the trial, full propagation rejects exactly
// when some output ends late. A chain made stale by accepts since the
// last Slacks is still a path of fanouts, so it can miss a cut but never
// make a false one. Before the first Slacks there are no chains.
func (inc *Incremental) TryUpdate(changed ...int) bool {
	inc.Trials++
	inc.delLog, inc.arrLog = inc.delLog[:0], inc.arrLog[:0]
	lo, hi := len(inc.c.Gates), -1
	for _, i := range changed {
		// The changed list may contain duplicates (e.g. a driver feeding
		// two pins of the same gate); only the first sighting holds the
		// pre-trial delay.
		if inc.isPending(i) {
			continue
		}
		inc.delLog = append(inc.delLog, undo{i, inc.DelayS[i]})
		inc.DelayS[i] = inc.c.GateDelay(&inc.c.Gates[i])
		inc.setPending(i)
		lo, hi = min(lo, i), max(hi, i)
	}
	lastSeed := hi
	ok := true
	for i := inc.nextPending(lo, hi); i >= 0; i = inc.nextPending(i+1, hi) {
		inc.pending[i>>6] &^= 1 << (i & 63)
		// Max over the gate-driven fanins (primary inputs arrive at 0).
		// Arrivals are finite and never -0, so max picks what a > in
		// would.
		in := 0.0
		for _, ref := range inc.fanin[inc.faninAt[i]:inc.faninAt[i+1]] {
			in = max(in, inc.ArrivalS[ref])
		}
		oldArr, newArr := inc.ArrivalS[i], in+inc.DelayS[i]
		if newArr == oldArr && in == inc.inArr[i] {
			continue
		}
		inc.arrLog = append(inc.arrLog, arrUndo{i, oldArr, inc.inArr[i]})
		inc.ArrivalS[i], inc.inArr[i] = newArr, in
		if newArr == oldArr {
			continue
		}
		if inc.po[i] && newArr > inc.deadline {
			ok = false
		} else if newArr > oldArr && i <= lastSeed && inc.isSeed(i) && inc.chainMisses(i, newArr) {
			ok = false
			inc.Cuts++
		}
		if !ok {
			// Drop the rest of the queue: every pending gate lies in
			// (i, hi], and the bits below i are already clear.
			clear(inc.pending[i>>6 : hi>>6+1])
			break
		}
		for _, fo := range inc.fanout[inc.fanoutAt[i]:inc.fanoutAt[i+1]] {
			if f := inc.inArr[fo]; newArr > f || oldArr == f {
				inc.setPending(int(fo))
				hi = max(hi, int(fo))
			}
		}
	}
	inc.Rewrites += len(inc.arrLog)
	if !ok {
		for _, u := range inc.arrLog {
			inc.ArrivalS[u.i], inc.inArr[u.i] = u.arr, u.in
		}
		for _, u := range inc.delLog {
			inc.DelayS[u.i] = u.v
		}
		return false
	}
	inc.Accepts++
	return true
}

// isSeed reports whether gate i is one of the current trial's seeds, the
// gates whose delays it logged.
func (inc *Incremental) isSeed(i int) bool {
	for _, u := range inc.delLog {
		if u.i == i {
			return true
		}
	}
	return false
}

// chainMisses reports whether gate i's critical chain misses the period
// when gate i arrives at a: the walk adds each chain gate's current delay
// and stops once the sum is past the deadline. A sum past it anywhere
// means one at the chain's end, which is a primary output: a gate with no
// path to one has an infinite required time and never sets its fanins',
// and the sums only grow along the chain.
func (inc *Incremental) chainMisses(i int, a float64) bool {
	for h := inc.crit[i]; h >= 0; h = inc.crit[h] {
		if a += inc.DelayS[h]; a > inc.deadline {
			return true
		}
	}
	return false
}

// TryResize is TryUpdate for a size change of gate i: the gate's own delay
// moves, and so does the delay of every gate driving one of its inputs,
// because gate i is part of that driver's load.
func (inc *Incremental) TryResize(i int) bool {
	inc.seeds = append(inc.seeds[:0], i)
	for _, ref := range inc.fanin[inc.faninAt[i]:inc.faninAt[i+1]] {
		inc.seeds = append(inc.seeds, int(ref))
	}
	return inc.TryUpdate(inc.seeds...)
}

func (inc *Incremental) isPending(i int) bool {
	return inc.pending[i>>6]&(1<<(i&63)) != 0
}

func (inc *Incremental) setPending(i int) {
	inc.pending[i>>6] |= 1 << (i & 63)
}

// nextPending returns the smallest pending gate ID in [from, hi], or -1.
func (inc *Incremental) nextPending(from, hi int) int {
	if from > hi {
		return -1
	}
	w, last := from>>6, hi>>6
	word := inc.pending[w] &^ (1<<(from&63) - 1)
	for word == 0 {
		if w++; w > last {
			return -1
		}
		word = inc.pending[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// Slacks returns every gate's slack from a backward required-time pass
// over the tracked arrivals and delays. They equal a fresh Analyze's SlackS
// bit for bit as long as every delay change went through TryUpdate. The
// pass also records each gate's critical fanout, the chains TryUpdate cuts
// rejected trials on until the next call. The returned slice is reused by
// the next call.
func (inc *Incremental) Slacks() []float64 {
	backward(inc.c, inc.PeriodS, inc.DelayS, inc.slack, inc.crit)
	for i, a := range inc.ArrivalS {
		inc.slack[i] -= a
	}
	return inc.slack
}

// SlackOrder returns every gate ID ordered most-slack-first, the visiting
// order of Downsize. The order is the one sort.Slice gives over Slacks,
// ties included. The returned slice is reused by the next call.
func (inc *Incremental) SlackOrder() []int {
	if inc.order == nil {
		n := len(inc.c.Gates)
		inc.ranked = make([]rankedGate, n)
		inc.order = make([]int, n)
	}
	for i, s := range inc.Slacks() {
		inc.ranked[i] = rankedGate{s, i}
	}
	// slices.SortFunc runs the same pdqsort as sort.Slice, and pdqsort's
	// moves depend only on comparison outcomes, so a comparator negative
	// exactly where slack[a] > slack[b] reproduces its permutation.
	slices.SortFunc(inc.ranked, func(a, b rankedGate) int {
		switch {
		case a.slack > b.slack:
			return -1
		case a.slack < b.slack:
			return 1
		}
		return 0
	})
	for k, r := range inc.ranked {
		inc.order[k] = r.id
	}
	return inc.order
}

// Downsize is the sizing greedy of resize and libopt. Each of up to rounds
// passes visits the gates in SlackOrder and moves each to the size next
// proposes for it (next declines with false); a move TryResize rejects is
// undone. A pass that keeps no move ends the greedy.
func (inc *Incremental) Downsize(rounds int, next func(size float64) (float64, bool)) {
	for r := 0; r < rounds; r++ {
		moved := 0
		for _, i := range inc.SlackOrder() {
			g := &inc.c.Gates[i]
			size, ok := next(g.Size)
			if !ok {
				continue
			}
			old := g.Size
			g.Size = size
			if inc.TryResize(i) {
				moved++
			} else {
				g.Size = old
			}
		}
		if moved == 0 {
			return
		}
	}
}

// WorstArrival returns the worst PO arrival currently recorded.
func (inc *Incremental) WorstArrival() float64 {
	worst := 0.0
	for i, a := range inc.ArrivalS {
		if inc.po[i] && a > worst {
			worst = a
		}
	}
	return worst
}

// Met reports whether the tracked state meets the period, by the test
// Result.Met applies.
func (inc *Incremental) Met() bool {
	return inc.WorstArrival() <= inc.deadline
}
