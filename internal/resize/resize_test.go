package resize

import (
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/netlist"
	"nanometer/internal/sta"
)

func circuit(t *testing.T, seed int64, size float64) *netlist.Circuit {
	t.Helper()
	tech, err := netlist.NewTechIn(device.BaseLab(), 100, 0.65)
	if err != nil {
		t.Fatal(err)
	}
	p := netlist.DefaultGenParams()
	p.Gates = 1200
	p.Seed = seed
	p.InitialSize = size
	c, err := netlist.Generate(tech, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sta.SetPeriodFromCritical(c, 1.1); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDownsizeBasics(t *testing.T) {
	c := circuit(t, 1, 4)
	res, err := Downsize(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimingMet {
		t.Fatalf("downsizing must preserve timing")
	}
	if res.SizeReduction <= 0.2 {
		t.Fatalf("an oversized netlist should shed much size, got %g", res.SizeReduction)
	}
	if res.PowerSaving <= 0 || res.DynamicSaving <= 0 {
		t.Fatalf("downsizing must save power")
	}
	for i := range c.Gates {
		if c.Gates[i].Size < DefaultOptions().MinSize {
			t.Fatalf("gate %d below minimum size", i)
		}
	}
}

func TestSublinearityFromWireCap(t *testing.T) {
	// The §3.3 argument: with real wire load, the dynamic-power return is
	// sublinear in the size reduction.
	c := circuit(t, 2, 4)
	res, err := Downsize(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Sublinearity >= 0.9 {
		t.Fatalf("sublinearity = %g, expected well below 1 with wire capacitance", res.Sublinearity)
	}
	if res.Sublinearity <= 0 {
		t.Fatalf("sublinearity must be positive")
	}

	// Strip the wire load and the return improves markedly.
	noWire := circuit(t, 2, 4)
	for i := range noWire.Gates {
		noWire.Gates[i].WireCapF *= 0.01
	}
	if _, err := sta.SetPeriodFromCritical(noWire, 1.1); err != nil {
		t.Fatal(err)
	}
	resNoWire, err := Downsize(noWire, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if resNoWire.Sublinearity <= res.Sublinearity {
		t.Fatalf("removing wire load must improve the return: %g vs %g",
			resNoWire.Sublinearity, res.Sublinearity)
	}
}

func TestDownsizeRespectsOptions(t *testing.T) {
	c := circuit(t, 3, 4)
	opts := Options{MinSize: 2, Step: 0.7, Rounds: 3}
	if _, err := Downsize(c, opts); err != nil {
		t.Fatal(err)
	}
	for i := range c.Gates {
		if c.Gates[i].Size < 2 {
			t.Fatalf("gate %d violates MinSize 2: %g", i, c.Gates[i].Size)
		}
	}
}

func TestDownsizeDefaultsFill(t *testing.T) {
	c := circuit(t, 4, 3)
	// Zero-value options must be filled with defaults, not break.
	res, err := Downsize(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimingMet {
		t.Fatalf("defaults must keep timing")
	}
}

func TestDownsizeErrors(t *testing.T) {
	c := circuit(t, 5, 3)
	c.ClockPeriodS = 0
	if _, err := Downsize(c, DefaultOptions()); err == nil {
		t.Fatalf("missing period must error")
	}
	c2 := circuit(t, 5, 3)
	c2.ClockPeriodS /= 10
	if _, err := Downsize(c2, DefaultOptions()); err == nil {
		t.Fatalf("violated baseline must error")
	}
}

func TestTighterClockLimitsDownsizing(t *testing.T) {
	loose := circuit(t, 6, 4)
	resLoose, err := Downsize(loose, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tight := circuit(t, 6, 4)
	if _, err := sta.SetPeriodFromCritical(tight, 1.0); err != nil {
		t.Fatal(err)
	}
	resTight, err := Downsize(tight, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if resTight.SizeReduction >= resLoose.SizeReduction {
		t.Fatalf("tight timing must limit downsizing: %g vs %g",
			resTight.SizeReduction, resLoose.SizeReduction)
	}
}
