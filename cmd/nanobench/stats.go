package main

import (
	"context"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile's rank before
// that percentile describes the tail rather than a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted: the element
// at index ceil(p·n/100)−1. ok is false when fewer than minBeyond samples lie
// beyond that rank; the value is then an order statistic of too few samples
// to stand for the tail, and the text output says so.
func percentile(sorted []float64, p int) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := (p*n + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median returns the middle of vals (the mean of the two middle values for
// an even count) without modifying vals.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of vals
// by the method of Python's statistics.quantiles(vals, n=4) (the
// "exclusive" default), so spreads printed here match those computed from
// the same values in Python. Fewer than two values give that value thrice.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// sample is the timing and outcome of one benchmark operation.
type sample struct {
	latency time.Duration
	// late is the time the client spent between its previous op's
	// completion and this op's start (checking outputs, bookkeeping): the
	// benchmark's own overhead, not the program's.
	late  time.Duration
	bytes int
	err   error
}

// An op performs operation seq of a client and returns the bytes it read
// and a check of its output. The loops time the op alone; check runs after
// the clock has stopped, and its error counts the op as failed.
type op func(ctx context.Context, client, seq int) (n int, check func() error, err error)

// closedLoop runs clients concurrent callers, each issuing its next op only
// after the previous one completed, for as long as more allows.
func closedLoop(ctx context.Context, clients int, more func(client, seq int) bool, run op) []sample {
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prev := time.Now()
			for seq := 0; more(c, seq) && ctx.Err() == nil; seq++ {
				start := time.Now()
				n, check, err := run(ctx, c, seq)
				end := time.Now()
				if err == nil && check != nil {
					err = check()
				}
				per[c] = append(per[c], sample{latency: end.Sub(start), late: start.Sub(prev), bytes: n, err: err})
				prev = end
			}
		}(c)
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}

// runFor runs a closed loop of clients for dur and returns the samples and
// the time they took. A client inside a block of ops when dur ends finishes
// the block, so a workload that plans its mix in blocks of that many ops
// runs the mix exactly, whatever the run's length.
func runFor(ctx context.Context, clients int, dur time.Duration, block int, run op) ([]sample, time.Duration) {
	start := time.Now()
	s := closedLoop(ctx, clients, func(_, seq int) bool { return seq%block != 0 || time.Since(start) < dur }, run)
	return s, time.Since(start)
}

// span is one timed interval of a traced run. Spans of one op share Op;
// Parent is the index of the enclosing span, −1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer records spans in memory; they are written out once, at exit. A
// nil tracer records nothing, which is what untraced runs use.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span and returns its id for end and for children.
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of it that its child spans cover. Overlapping children
// (parallel work under one parent) are counted once.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.lo > reach {
				reach = v.lo
			}
			if v.hi > reach {
				covered += v.hi - reach
				reach = v.hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}
