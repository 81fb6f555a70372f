package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		name   string
		sorted []float64
		p      int
		want   float64
		ok     bool
	}{
		{"p50 of 10 is the 5th", seq(10), 50, 5, false},
		{"p99 of 10 is the max", seq(10), 99, 10, false},
		{"p50 of 20 has 10 beyond", seq(20), 50, 10, true},
		{"p50 of 19 has 9 beyond", seq(19), 50, 10, false},
		{"p90 of 100 has 10 beyond", seq(100), 90, 90, true},
		{"p90 of 99 has 9 beyond", seq(99), 90, 90, false},
		{"p99 of 100 has 1 beyond", seq(100), 99, 99, false},
		{"p99 of 1000 has 10 beyond", seq(1000), 99, 990, true},
		{"p99 of 1001 rounds the rank up", seq(1001), 99, 991, true},
		{"one sample", []float64{7}, 50, 7, false},
		{"empty", nil, 50, 0, false},
	} {
		got, ok := percentile(tc.sorted, tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("%s: percentile(p%d) = %v, %v; want %v, %v", tc.name, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the values printed by `python3 -c 'import statistics; ...'`.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vals []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(tc.vals)
		if [3]float64{q1, q2, q3} != tc.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.vals, q1, q2, q3, tc.want)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestRunForFinishesBlocks checks that a client inside a block when the
// time is up finishes the block, so a planned mix runs exactly.
func TestRunForFinishesBlocks(t *testing.T) {
	var mu sync.Mutex
	per := map[int]int{}
	s, _ := runFor(context.Background(), 2, 5*time.Millisecond, 3, func(_ context.Context, c, _ int) (int, func() error, error) {
		time.Sleep(time.Millisecond)
		mu.Lock()
		per[c]++
		mu.Unlock()
		return 0, nil, nil
	})
	for c := 0; c < 2; c++ {
		if per[c] == 0 || per[c]%3 != 0 {
			t.Errorf("client %d ran %d ops, want a positive multiple of 3", c, per[c])
		}
	}
	if len(s) != per[0]+per[1] {
		t.Errorf("%d samples for %d ops", len(s), per[0]+per[1])
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},
		{Name: "a.child", Start: 15, End: 20, Parent: 1},
		{Name: "c", Start: 90, End: 120, Parent: 0},
	}
	// root: 100 minus the union of [10,60] and [90,100].
	want := []int64{40, 25, 30, 5, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start("x", -1, 0)
	tr.end(id)
	if id != -1 || tr.snapshot() != nil {
		t.Errorf("nil tracer returned id %d and spans %v", id, tr.snapshot())
	}
	tr = newTracer()
	tr.end(tr.start("op", -1, 3))
	if s := tr.snapshot(); len(s) != 1 || s[0].Op != 3 || s[0].End < s[0].Start {
		t.Errorf("spans %+v", s)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		next   []float64
		higher bool
		want   string
	}{
		{"same", []float64{101, 100, 99, 102, 100}, false, "same"},
		{"slower", []float64{120, 121, 119, 120, 122}, false, "WORSE"},
		{"faster", []float64{80, 81, 79, 80, 82}, false, "better"},
		{"more throughput", []float64{120, 121, 119, 120, 122}, true, "better"},
		{"noisy overlap", []float64{60, 140, 100, 80, 120}, false, "unresolved: spread 60.0%"},
		{"noisy but separated", []float64{130, 160, 140, 135, 155}, false, "WORSE"},
	} {
		if got := verdict(base, tc.next, tc.higher, 0.1); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
