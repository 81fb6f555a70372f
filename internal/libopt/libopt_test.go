package libopt

import (
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/netlist"
	"nanometer/internal/sta"
)

func oversized(t *testing.T, seed int64) *netlist.Circuit {
	t.Helper()
	tech, err := netlist.NewTechIn(device.BaseLab(), 100, 0.65)
	if err != nil {
		t.Fatal(err)
	}
	p := netlist.DefaultGenParams()
	p.Gates = 1000
	p.Seed = seed
	p.InitialSize = 8
	c, err := netlist.Generate(tech, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sta.SetPeriodFromCritical(c, 1.15); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGeometricLibrary(t *testing.T) {
	lib := Geometric("x", 1, 16, 2)
	want := []float64{1, 2, 4, 8, 16}
	if len(lib.Sizes) != len(want) {
		t.Fatalf("sizes = %v, want %v", lib.Sizes, want)
	}
	for i := range want {
		if lib.Sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", lib.Sizes, want)
		}
	}
	if lib.IsContinuous() {
		t.Fatalf("geometric library is discrete")
	}
	if lib.Floor() != 1 {
		t.Fatalf("floor = %g", lib.Floor())
	}
}

func TestNextBelowDiscrete(t *testing.T) {
	lib := Geometric("x", 1, 16, 2)
	cases := []struct {
		in   float64
		want float64
		ok   bool
	}{
		{16, 8, true},
		{8, 4, true},
		{5, 4, true}, // off-grid snaps to largest below
		{1, 0, false},
		{0.5, 0, false},
	}
	for _, c := range cases {
		got, ok := lib.NextBelow(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("NextBelow(%g) = %g, %v; want %g, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestNextBelowContinuous(t *testing.T) {
	lib := Continuous(0.5)
	got, ok := lib.NextBelow(1.0)
	if !ok || got >= 1.0 || got < 0.5 {
		t.Fatalf("NextBelow(1) = %g, %v", got, ok)
	}
	// Just above the floor: steps to the floor itself.
	got, ok = lib.NextBelow(0.55)
	if !ok || got != 0.5 {
		t.Fatalf("NextBelow(0.55) = %g, %v, want the 0.5 floor", got, ok)
	}
	// At the floor: no further move.
	if _, ok := lib.NextBelow(0.5); ok {
		t.Fatalf("the floor must be terminal")
	}
}

func TestSizeWithLibraryMeetsTiming(t *testing.T) {
	for _, lib := range []Library{
		Geometric("coarse", 4, 64, 2),
		Geometric("rich", 1, 64, 1.3),
		Continuous(0.5),
	} {
		c := oversized(t, 1)
		res, err := SizeWithLibrary(c, lib, 0)
		if err != nil {
			t.Fatalf("%s: %v", lib.Name, err)
		}
		if !res.TimingMet {
			t.Fatalf("%s: timing violated", lib.Name)
		}
		// All sizes must be on the library grid / above the floor.
		for i := range c.Gates {
			if c.Gates[i].Size < lib.Floor()-1e-12 {
				t.Fatalf("%s: gate %d below floor (%g)", lib.Name, i, c.Gates[i].Size)
			}
		}
	}
}

func TestFinerLibrariesSaveMorePower(t *testing.T) {
	base := oversized(t, 2)
	libs := []Library{
		Geometric("coarse", 4, 64, 2),
		Geometric("rich", 1, 64, 1.3),
		Continuous(0.25),
	}
	results, err := CompareLibraries(base, libs)
	if err != nil {
		t.Fatal(err)
	}
	coarse := results[0].Power.TotalW()
	rich := results[1].Power.TotalW()
	cont := results[2].Power.TotalW()
	if !(cont < rich && rich < coarse) {
		t.Fatalf("power must improve with granularity: %g (coarse) %g (rich) %g (continuous)",
			coarse, rich, cont)
	}
	// The on-the-fly gain over the coarse library is substantial (the
	// paper's §2.3 waste argument).
	if 1-cont/coarse < 0.15 {
		t.Fatalf("continuous vs coarse saving = %g, expected ≥ 15%%", 1-cont/coarse)
	}
	// And sizes shrink with granularity too.
	if !(results[2].TotalSize < results[1].TotalSize && results[1].TotalSize < results[0].TotalSize) {
		t.Fatalf("sizes should improve with granularity")
	}
}

func TestCompareLibrariesDoesNotMutateBase(t *testing.T) {
	base := oversized(t, 3)
	before := make([]float64, len(base.Gates))
	for i := range base.Gates {
		before[i] = base.Gates[i].Size
	}
	if _, err := CompareLibraries(base, []Library{Continuous(0.5)}); err != nil {
		t.Fatal(err)
	}
	for i := range base.Gates {
		if base.Gates[i].Size != before[i] {
			t.Fatalf("CompareLibraries mutated the base circuit")
		}
	}
}

func TestSizeWithLibraryErrors(t *testing.T) {
	c := oversized(t, 4)
	c.ClockPeriodS = 0
	if _, err := SizeWithLibrary(c, Continuous(0.5), 0); err == nil {
		t.Fatalf("missing period must error")
	}
	// A circuit that already violates its clock must be rejected rather
	// than silently "optimized".
	c2 := oversized(t, 4)
	c2.ClockPeriodS /= 10
	if _, err := SizeWithLibrary(c2, Continuous(0.5), 0); err == nil {
		t.Fatalf("a violating circuit must error")
	}
}
