package mathx

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestBisectKnownRoots(t *testing.T) {
	cases := []struct {
		name string
		f    func(float64) float64
		a, b float64
		want float64
	}{
		{"linear", func(x float64) float64 { return 2*x - 3 }, 0, 5, 1.5},
		{"quadratic", func(x float64) float64 { return x*x - 2 }, 0, 2, math.Sqrt2},
		{"cosine", math.Cos, 0, 3, math.Pi / 2},
		{"cubic", func(x float64) float64 { return x*x*x - x - 2 }, 1, 2, 1.5213797},
	}
	for _, c := range cases {
		got, err := Bisect(c.f, c.a, c.b, 1e-10)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(got-c.want) > 1e-7 {
			t.Errorf("%s: root %g, want %g", c.name, got, c.want)
		}
	}
}

func TestBisectEndpointsAreRoots(t *testing.T) {
	f := func(x float64) float64 { return x }
	if got, err := Bisect(f, 0, 1, 1e-12); err != nil || got != 0 {
		t.Fatalf("f(a)=0 should return a: got %g, %v", got, err)
	}
	if got, err := Bisect(f, -1, 0, 1e-12); err != nil || got != 0 {
		t.Fatalf("f(b)=0 should return b: got %g, %v", got, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	_, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-10)
	if !errors.Is(err, ErrNoBracket) {
		t.Fatalf("want ErrNoBracket, got %v", err)
	}
}

func TestBrentKnownRoots(t *testing.T) {
	cases := []struct {
		name string
		f    func(float64) float64
		a, b float64
		want float64
	}{
		{"linear", func(x float64) float64 { return 2*x - 3 }, 0, 5, 1.5},
		{"quadratic", func(x float64) float64 { return x*x - 2 }, 0, 2, math.Sqrt2},
		{"exp", func(x float64) float64 { return math.Exp(x) - 5 }, 0, 3, math.Log(5)},
		{"steep", func(x float64) float64 { return math.Pow(10, -x/0.085) - 0.01 }, 0, 1, 0.17},
	}
	for _, c := range cases {
		got, err := Brent(c.f, c.a, c.b, 1e-12)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("%s: root %g, want %g", c.name, got, c.want)
		}
	}
}

func TestBrentNoBracket(t *testing.T) {
	_, err := Brent(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-10)
	if !errors.Is(err, ErrNoBracket) {
		t.Fatalf("want ErrNoBracket, got %v", err)
	}
}

// Property: for random monotone cubics with a root in range, Brent and
// Bisect agree.
func TestBrentMatchesBisect(t *testing.T) {
	f := func(seedA, seedB uint8) bool {
		a := 0.1 + float64(seedA)/64 // slope
		r := -2 + float64(seedB)/32  // root location in [-2, 6)
		fn := func(x float64) float64 { return a * (x - r) * (1 + 0.1*(x-r)*(x-r)) }
		b1, err1 := Brent(fn, r-3, r+3, 1e-12)
		b2, err2 := Bisect(fn, r-3, r+3, 1e-12)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(b1-b2) < 1e-8 && math.Abs(b1-r) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFindBracket(t *testing.T) {
	f := func(x float64) float64 { return x - 100 }
	lo, hi, err := FindBracket(f, 0, 1, 60)
	if err != nil {
		t.Fatal(err)
	}
	if f(lo) > 0 || f(hi) < 0 {
		t.Fatalf("bracket [%g, %g] does not straddle the root", lo, hi)
	}
	if _, _, err := FindBracket(func(float64) float64 { return 1 }, 0, 1, 10); !errors.Is(err, ErrNoBracket) {
		t.Fatalf("constant function must fail to bracket")
	}
	// Degenerate interval is widened.
	if _, _, err := FindBracket(f, 50, 50, 60); err != nil {
		t.Fatalf("degenerate interval: %v", err)
	}
}

func TestGoldenSection(t *testing.T) {
	x, fx := GoldenSection(func(x float64) float64 { return (x - 3) * (x - 3) }, -10, 10, 1e-10)
	if math.Abs(x-3) > 1e-6 || fx > 1e-10 {
		t.Fatalf("minimum at %g (f=%g), want 3", x, fx)
	}
	// Reversed bounds are tolerated.
	x, _ = GoldenSection(func(x float64) float64 { return math.Abs(x - 1) }, 5, -5, 1e-10)
	if math.Abs(x-1) > 1e-6 {
		t.Fatalf("minimum at %g, want 1", x)
	}
}
