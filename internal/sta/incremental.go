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
// moved arrival can change its fanin max (see TryUpdate). The rollback
// state is a pair of dense undo logs truncated at the start of every
// trial.
type Incremental struct {
	c *netlist.Circuit
	// ArrivalS and DelayS mirror the Result fields and stay current.
	ArrivalS, DelayS []float64
	// inArr[i] is gate i's max gate-driven fanin arrival (0 with none),
	// the value Analyze adds gate i's delay to.
	inArr []float64
	// PeriodS is the constraint.
	PeriodS float64

	eps float64

	// The topology, flattened once: the gate-driven fanins of gate i are
	// fanin[faninAt[i]:faninAt[i+1]], its fanouts likewise, and po[i]
	// marks a primary output.
	faninAt, fanin, fanoutAt, fanout []int32
	po                               []bool

	// pending marks the gates queued for repropagation in the current
	// trial; it is all zero between trials.
	pending []uint64
	// delLog holds the pre-trial value of every delay the current trial
	// overwrote, arrLog that of every arrival and its fanin max.
	delLog []undo
	arrLog []arrUndo
	// seeds and ranked are scratch for TryResize and SlackOrder; required
	// and order are SlackOrder's buffers.
	seeds    []int
	ranked   []rankedGate
	required []float64
	order    []int
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
	nIn, nOut := 0, 0
	for i := range c.Gates {
		g := &c.Gates[i]
		for _, ref := range g.Inputs {
			if _, isPI := netlist.IsPI(ref); !isPI {
				nIn++
			}
		}
		nOut += len(g.Fanouts)
	}
	inc := &Incremental{
		c:        c,
		ArrivalS: r.ArrivalS,
		DelayS:   r.DelayS,
		PeriodS:  r.PeriodS,
		eps:      r.PeriodS * 1e-12,
		inArr:    make([]float64, n),
		faninAt:  make([]int32, n+1),
		fanin:    make([]int32, 0, nIn),
		fanoutAt: make([]int32, n+1),
		fanout:   make([]int32, 0, nOut),
		po:       make([]bool, n),
		pending:  make([]uint64, (n+63)/64),
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
func (inc *Incremental) TryUpdate(changed ...int) bool {
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
		if inc.po[i] && newArr > inc.PeriodS+inc.eps {
			ok = false
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
	if !ok {
		for _, u := range inc.arrLog {
			inc.ArrivalS[u.i], inc.inArr[u.i] = u.arr, u.in
		}
		for _, u := range inc.delLog {
			inc.DelayS[u.i] = u.v
		}
	}
	return ok
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

// SlackOrder returns every gate ID ordered most-slack-first, the visiting
// order of the sizing greedies. The slacks come from a backward
// required-time pass over the tracked arrivals and delays, which equal a
// fresh Analyze bit for bit as long as every delay change went through
// TryUpdate; the order is the one sort.Slice gives over Analyze's SlackS,
// ties included. The returned slice is reused by the next call.
func (inc *Incremental) SlackOrder() []int {
	if inc.order == nil {
		n := len(inc.c.Gates)
		inc.required = make([]float64, n)
		inc.ranked = make([]rankedGate, n)
		inc.order = make([]int, n)
	}
	backward(inc.c, inc.PeriodS, inc.DelayS, inc.required)
	for i := range inc.ranked {
		inc.ranked[i] = rankedGate{inc.required[i] - inc.ArrivalS[i], i}
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

// WorstArrival returns the worst PO arrival currently recorded.
func (inc *Incremental) WorstArrival() float64 {
	worst := 0.0
	for i := range inc.c.Gates {
		if inc.c.Gates[i].IsPO && inc.ArrivalS[i] > worst {
			worst = inc.ArrivalS[i]
		}
	}
	return worst
}

// Met reports whether the tracked state meets the period.
func (inc *Incremental) Met() bool {
	return inc.WorstArrival() <= inc.PeriodS+inc.eps
}
