package powergrid

import (
	"math"
	"math/rand"
	"testing"

	"nanometer/internal/mathx"
)

// denseLadderDrop solves the ladder as a dense system with
// mathx.SolveDense: the reference Ladder.Solve must match bit for bit.
func denseLadderDrop(l *Ladder) (float64, error) {
	n := l.N - 1
	g := 1 / l.SegOhms
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n)
		a[i][i] = 2 * g
		if i > 0 {
			a[i][i-1] = -g
		}
		if i < n-1 {
			a[i][i+1] = -g
		}
		b[i] = l.TapCurrentA
	}
	v, err := mathx.SolveDense(a, b)
	if err != nil {
		return 0, err
	}
	peak := 0.0
	for _, x := range v {
		if x > peak {
			peak = x
		}
	}
	return peak, nil
}

// TestLadderSolveMatchesDense pins the tridiagonal elimination to the
// dense solve bit for bit: c8's own ladder, the shortest ladders, and
// seeded random ladders with log-normal segment resistance and tap
// current.
func TestLadderSolveMatchesDense(t *testing.T) {
	s := spec35(80e-6)
	sz, err := s.SizeRails()
	if err != nil {
		t.Fatal(err)
	}
	c8, err := NewLadder(s, sz.RailWidthM, 256)
	if err != nil {
		t.Fatal(err)
	}
	ladders := []*Ladder{c8, {N: 2, SegOhms: 0.3, TapCurrentA: 1e-3}, {N: 3, SegOhms: 7, TapCurrentA: 2e-4}}
	rng := rand.New(rand.NewSource(27))
	for k := 0; k < 150; k++ {
		ladders = append(ladders, &Ladder{
			N:           2 + rng.Intn(300),
			SegOhms:     math.Exp(3 * rng.NormFloat64()),
			TapCurrentA: math.Exp(3*rng.NormFloat64() - 7),
		})
	}
	for _, l := range ladders {
		got, err := l.Solve()
		if err != nil {
			t.Fatalf("%+v: %v", *l, err)
		}
		want, err := denseLadderDrop(l)
		if err != nil {
			t.Fatalf("%+v: dense: %v", *l, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%+v: drop %v, dense %v", *l, got, want)
		}
	}
}

// BenchmarkLadderSolve solves c8's ladder: one 256-segment rail span.
func BenchmarkLadderSolve(b *testing.B) {
	s := spec35(80e-6)
	sz, err := s.SizeRails()
	if err != nil {
		b.Fatal(err)
	}
	l, err := NewLadder(s, sz.RailWidthM, 256)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := l.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
