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
// granularity until no move fits the period. The circuit is modified in
// place; gates are first snapped *up* to the library floor/grid (the
// overdrive a coarse library forces on small loads).
func SizeWithLibrary(c *netlist.Circuit, lib Library, fHz float64) (*Result, error) {
	if c.ClockPeriodS <= 0 {
		return nil, fmt.Errorf("libopt: circuit has no clock period")
	}
	// Snap up to the library grid.
	for i := range c.Gates {
		c.Gates[i].Size = snapUp(lib, c.Gates[i].Size)
	}
	if r := sta.Analyze(c); !r.Met() {
		return nil, fmt.Errorf("libopt: circuit misses period after snapping to %s", lib.Name)
	}
	if fHz == 0 {
		fHz = 1 / c.ClockPeriodS
	}
	inc := sta.NewIncremental(c)
	for rounds := 0; rounds < 64; rounds++ {
		moved := 0
		for _, i := range inc.SlackOrder() {
			g := &c.Gates[i]
			next, ok := lib.NextBelow(g.Size)
			if !ok {
				continue
			}
			old := g.Size
			g.Size = next
			if inc.TryResize(i) {
				moved++
			} else {
				g.Size = old
			}
		}
		if moved == 0 {
			break
		}
	}
	power.PropagateActivity(c)
	rep := power.Analyze(c, fHz)
	final := sta.Analyze(c)
	res := &Result{Library: lib, Power: rep, TimingMet: final.Met()}
	for i := range c.Gates {
		res.TotalSize += c.Gates[i].Size
	}
	return res, nil
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

// CompareLibraries runs the same base circuit through each library and
// reports powers normalized to the first library. The base circuit is not
// modified; each run works on a clone.
func CompareLibraries(base *netlist.Circuit, libs []Library, fHz float64) ([]*Result, error) {
	out := make([]*Result, 0, len(libs))
	for _, lib := range libs {
		c := base.Clone()
		r, err := SizeWithLibrary(c, lib, fHz)
		if err != nil {
			return nil, fmt.Errorf("libopt: %s: %w", lib.Name, err)
		}
		out = append(out, r)
	}
	return out, nil
}
