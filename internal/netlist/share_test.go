package netlist_test

import (
	"sync"
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/libopt"
	"nanometer/internal/netlist"
	"nanometer/internal/sta"
)

// Clones share their Tech, and the sizing greedies read its cell table on
// every trial. Two goroutines sizing two clones of one netlist from a
// fresh Tech must not race (run under -race) and must land on the same
// netlist.
func TestClonesSizeConcurrentlyOnOneTech(t *testing.T) {
	tech, err := netlist.NewTechIn(device.BaseLab(), 100, 0.65)
	if err != nil {
		t.Fatal(err)
	}
	p := netlist.DefaultGenParams()
	p.Gates = 400
	p.Levels = 20
	base, err := netlist.Generate(tech, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Gates {
		base.Gates[i].Size = 8
	}
	// No cell has been evaluated yet: the first delays are computed in the
	// two goroutines at once.
	clones := []*netlist.Circuit{base.Clone(), base.Clone()}
	errs := make([]error, len(clones))
	var wg sync.WaitGroup
	for k, c := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, errs[k] = sta.SetPeriodFromCritical(c, 1.15); errs[k] == nil {
				_, errs[k] = libopt.SizeWithLibrary(c, libopt.Continuous(0.25), 0)
			}
		}()
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("clone %d: %v", k, err)
		}
	}
	moved := false
	for i := range base.Gates {
		a, b := clones[0].Gates[i].Size, clones[1].Gates[i].Size
		if a != b {
			t.Fatalf("gate %d sized to %g in one clone and %g in the other", i, a, b)
		}
		moved = moved || a != base.Gates[i].Size
	}
	if !moved {
		t.Fatalf("sizing moved no gate; the test exercises nothing")
	}
}
