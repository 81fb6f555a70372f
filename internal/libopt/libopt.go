// Package libopt reproduces the library-optimization analysis of §2.3: how
// much power a fixed-timing design wastes when gate sizes must snap to a
// discrete drive-strength library, and how much an on-the-fly ("Cadabra-
// style") continuous cell generator recovers. The cited results are 15–22 %
// power reduction at fixed timing when hundreds of exact-fit cells augment a
// rich library; the ablation here sweeps library granularity from the
// coarse legacy case ([15]'s "smallest gates ≈10× minimum") to continuous.
package libopt

import (
	"fmt"
	"sort"

	"nanometer/internal/netlist"
	"nanometer/internal/power"
	"nanometer/internal/runner"
	"nanometer/internal/sta"
)

// Library is a discrete set of available drive strengths.
type Library struct {
	Name string
	// Sizes are the available strengths, ascending. Empty means
	// continuous sizing (any strength ≥ MinSize).
	Sizes []float64
	// MinSize bounds continuous sizing.
	MinSize float64
}

// Continuous returns an on-the-fly library: any size above min.
func Continuous(min float64) Library {
	return Library{Name: "on-the-fly (continuous)", MinSize: min}
}

// Geometric builds a drive-strength family from min to max with the given
// ratio between adjacent sizes (e.g. ratio 2 = coarse legacy library,
// ratio ~1.25 = modern rich library with 16 inverter sizes).
func Geometric(name string, min, max, ratio float64) Library {
	var sizes []float64
	for s := min; s <= max*1.0001; s *= ratio {
		sizes = append(sizes, s)
	}
	return Library{Name: name, Sizes: sizes}
}

// IsContinuous reports whether the library allows arbitrary sizes.
func (l Library) IsContinuous() bool { return len(l.Sizes) == 0 }

// NextBelow returns the largest library size strictly below s, or ok=false.
func (l Library) NextBelow(s float64) (float64, bool) {
	if l.IsContinuous() {
		n := s * 0.85
		if n < l.MinSize {
			if s > l.MinSize*1.0001 {
				return l.MinSize, true
			}
			return 0, false
		}
		return n, true
	}
	idx := sort.SearchFloat64s(l.Sizes, s)
	// idx is the first size ≥ s; the candidate is idx−1.
	if idx == 0 {
		return 0, false
	}
	cand := l.Sizes[idx-1]
	if cand >= s {
		if idx-2 < 0 {
			return 0, false
		}
		cand = l.Sizes[idx-2]
	}
	return cand, true
}

// Floor returns the smallest usable size in the library.
func (l Library) Floor() float64 {
	if l.IsContinuous() {
		return l.MinSize
	}
	return l.Sizes[0]
}

// Result summarizes a library-constrained sizing run.
type Result struct {
	Library Library
	// Power is the post-sizing report; TotalW its total.
	Power *power.Report
	// TotalSize is the summed drive strength.
	TotalSize float64
	// TimingMet confirms the period holds.
	TimingMet bool
}

// SizeWithLibrary downsizes the circuit greedily under the library's
// granularity until no move fits the period, and evaluates power at fHz
// (zero uses 1/period). The circuit is modified in place; gates are first
// snapped *up* to the library floor/grid (the overdrive a coarse library
// forces on small loads).
func SizeWithLibrary(c *netlist.Circuit, lib Library, fHz float64) (*Result, error) {
	if c.ClockPeriodS <= 0 {
		return nil, fmt.Errorf("libopt: circuit has no clock period")
	}
	// Snap up to the library grid.
	for i := range c.Gates {
		c.Gates[i].Size = snapUp(lib, c.Gates[i].Size)
	}
	inc := sta.NewIncremental(c)
	if !inc.Met() {
		return nil, fmt.Errorf("libopt: circuit misses period after snapping to %s", lib.Name)
	}
	if fHz == 0 {
		fHz = 1 / c.ClockPeriodS
	}
	inc.Downsize(64, lib.NextBelow)
	power.PropagateActivity(c)
	return &Result{
		Library:   lib,
		Power:     power.Analyze(c, fHz),
		TotalSize: c.TotalSize(),
		TimingMet: sta.Analyze(c).Met(),
	}, nil
}

func snapUp(lib Library, s float64) float64 {
	if lib.IsContinuous() {
		if s < lib.MinSize {
			return lib.MinSize
		}
		return s
	}
	idx := sort.SearchFloat64s(lib.Sizes, s)
	if idx >= len(lib.Sizes) {
		return lib.Sizes[len(lib.Sizes)-1]
	}
	return lib.Sizes[idx]
}

// CompareLibraries runs the same base circuit through each library, with
// power at 1/period. The base circuit is not modified: each library sizes
// a clone of its own, on a goroutine of its own, and the results come back
// in the order of libs.
func CompareLibraries(base *netlist.Circuit, libs []Library) ([]*Result, error) {
	out := make([]*Result, len(libs))
	runs := make([]func() error, len(libs))
	for i, lib := range libs {
		runs[i] = func() error {
			r, err := SizeWithLibrary(base.Clone(), lib, 0)
			if err != nil {
				return fmt.Errorf("libopt: %s: %w", lib.Name, err)
			}
			out[i] = r
			return nil
		}
	}
	if err := runner.Parallel(runs...); err != nil {
		return nil, err
	}
	return out, nil
}
