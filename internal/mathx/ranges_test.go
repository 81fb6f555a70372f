package mathx

import (
	"math"
	"testing"
)

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if got := Linspace(3, 7, 1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("degenerate linspace: %v", got)
	}
}

func TestLogspace(t *testing.T) {
	got := Logspace(0.01, 1, 3)
	want := []float64{0.01, 0.1, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("non-positive endpoint must panic")
		}
	}()
	Logspace(0, 1, 3)
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatalf("clamp broken")
	}
}
