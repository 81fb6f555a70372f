package device

import (
	"sync"
	"testing"
)

// TestForNodeConcurrent hammers the calibration cache from many goroutines
// across every node and both polarities. Under `go test -race` this verifies
// the once-cell cache: no data race on misses (first calibration) or hits,
// every caller sees the same calibrated values, and every caller gets a
// private copy it can mutate freely.
func TestForNodeConcurrent(t *testing.T) {
	nodes := []int{180, 130, 100, 70, 50, 35}
	const goroutines = 16
	devs := make([][]*Device, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, n := range nodes {
				d, err := BaseLab().ForNode(n)
				if err != nil {
					t.Errorf("BaseLab().ForNode(%d): %v", n, err)
					return
				}
				p, err := BaseLab().ForNodePMOS(n)
				if err != nil {
					t.Errorf("BaseLab().ForNodePMOS(%d): %v", n, err)
					return
				}
				devs[g] = append(devs[g], d, p)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Determinism: every goroutine saw identical calibrations.
	for g := 1; g < goroutines; g++ {
		for i := range devs[0] {
			if *devs[g][i] != *devs[0][i] {
				t.Fatalf("goroutine %d device %d differs: %+v vs %+v", g, i, devs[g][i], devs[0][i])
			}
		}
	}
	// Isolation: callers own their copies; mutating one must not leak into
	// the cache or other callers.
	devs[0][0].Vth0 += 1
	fresh, err := BaseLab().ForNode(nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	if *fresh == *devs[0][0] {
		t.Fatal("mutation leaked into the calibration cache")
	}
	if *fresh != *devs[1][0] {
		t.Fatal("cache returned a drifted device")
	}
}

// TestForNodeConcurrentErrors checks the failure path of the once-cell: an
// unknown node fails deterministically for every concurrent caller without
// racing on the cached error.
func TestForNodeConcurrentErrors(t *testing.T) {
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := BaseLab().ForNode(17); err == nil {
				t.Error("unknown node must error")
			}
		}()
	}
	wg.Wait()
}
