package device

import (
	"sync"
	"testing"
)

// TestForNodeConcurrent hammers the calibration cache from many goroutines
// across every node and both polarities. Under `go test -race` this verifies
// the once-cell cache: no data race on misses (first calibration) or hits,
// and every caller gets the same cached device.
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
	for g := 1; g < goroutines; g++ {
		for i := range devs[0] {
			if devs[g][i] != devs[0][i] {
				t.Fatalf("goroutine %d device %d is %p, goroutine 0's is %p", g, i, devs[g][i], devs[0][i])
			}
		}
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
