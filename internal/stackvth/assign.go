package stackvth

import (
	"fmt"
	"math"

	"nanometer/internal/device"
)

// Assignment is one intra-cell Vth configuration of a stack.
type Assignment struct {
	// Vths are the per-position thresholds, bottom first.
	Vths []float64
	// LeakageA is the state-averaged stack leakage.
	LeakageA float64
	// DelayS is the pull-down delay into the evaluation load.
	DelayS float64
	// LeakageSaving and DelayPenalty are relative to the all-low-Vth
	// reference.
	LeakageSaving, DelayPenalty float64
}

// ExploreIn evaluates every 2^n mixed assignment of {vthLow, vthHigh} for an
// n-high stack at the node, sorted as generated (bit k of the index = high
// Vth at position k, bottom first). The first entry is the all-low
// reference.
func ExploreIn(lab *device.Lab, nodeNM, n int, widthM, vthLow, vthHigh, loadF float64) ([]Assignment, error) {
	if vthHigh <= vthLow {
		return nil, fmt.Errorf("stackvth: vthHigh %g must exceed vthLow %g", vthHigh, vthLow)
	}
	var out []Assignment
	var refLeak, refDelay float64
	for mask := 0; mask < 1<<n; mask++ {
		vths := make([]float64, n)
		for k := 0; k < n; k++ {
			if mask&(1<<k) != 0 {
				vths[k] = vthHigh
			} else {
				vths[k] = vthLow
			}
		}
		st, err := NewStackIn(lab, nodeNM, n, widthM, vths)
		if err != nil {
			return nil, err
		}
		leak, err := st.AverageLeakage()
		if err != nil {
			return nil, err
		}
		delay := st.Delay(loadF)
		a := Assignment{Vths: vths, LeakageA: leak, DelayS: delay}
		if mask == 0 {
			refLeak, refDelay = leak, delay
		}
		if refLeak > 0 {
			a.LeakageSaving = 1 - leak/refLeak
		}
		if refDelay > 0 {
			a.DelayPenalty = delay/refDelay - 1
		}
		out = append(out, a)
	}
	return out, nil
}

// BestUnderPenalty returns the assignment with the largest leakage saving
// whose delay penalty stays at or below maxPenalty.
func BestUnderPenalty(assignments []Assignment, maxPenalty float64) (Assignment, error) {
	best := -1
	for i, a := range assignments {
		if a.DelayPenalty > maxPenalty {
			continue
		}
		if best < 0 || a.LeakageSaving > assignments[best].LeakageSaving {
			best = i
		}
	}
	if best < 0 {
		return Assignment{}, fmt.Errorf("stackvth: no assignment within %.1f%% delay", maxPenalty*100)
	}
	return assignments[best], nil
}

// HighCount returns how many positions of an assignment use the high
// threshold (identified as the maximum of the vector when mixed).
func (a Assignment) HighCount() int {
	lo := math.Inf(1)
	for _, v := range a.Vths {
		lo = math.Min(lo, v)
	}
	n := 0
	for _, v := range a.Vths {
		if v > lo {
			n++
		}
	}
	return n
}
