// Package resize implements post-synthesis transistor re-sizing: downsizing
// gates off the critical paths to save power (§3.3). Downsizing shrinks
// gate capacitance — but not the wire capacitance on the nets — which is
// exactly why the paper calls the power return *sublinear* in the size
// reduction and argues a lower supply (quadratic return) should be
// preferred once slack exists.
package resize

import (
	"fmt"

	"nanometer/internal/netlist"
	"nanometer/internal/power"
	"nanometer/internal/sta"
)

// Options tunes the downsizing pass.
type Options struct {
	// MinSize is the smallest allowed drive strength (unit cells).
	MinSize float64
	// Step is the multiplicative downsize step per accepted move (< 1).
	Step float64
	// Rounds bounds the number of passes over the netlist.
	Rounds int
	// ClockHz evaluates power; zero uses 1/period.
	ClockHz float64
}

// DefaultOptions returns a conventional configuration.
func DefaultOptions() Options {
	return Options{MinSize: 0.5, Step: 0.8, Rounds: 8}
}

// Result summarizes a downsizing run.
type Result struct {
	// SizeReduction is 1 − totalSizeAfter/totalSizeBefore.
	SizeReduction float64
	// Before and After are the power reports.
	Before, After *power.Report
	// PowerSaving is 1 − after/before total power.
	PowerSaving float64
	// DynamicSaving is 1 − after/before dynamic power.
	DynamicSaving float64
	// Sublinearity is DynamicSaving / SizeReduction — below 1 when wire
	// capacitance dilutes the return (the paper's point).
	Sublinearity float64
	// TimingMet confirms the final circuit meets its period.
	TimingMet bool
}

// Downsize shrinks off-critical gates until no further move fits the period.
// The circuit is modified in place and must meet its period on entry.
func Downsize(c *netlist.Circuit, opts Options) (*Result, error) {
	if opts.MinSize <= 0 {
		opts.MinSize = 0.5
	}
	if opts.Step <= 0 || opts.Step >= 1 {
		opts.Step = 0.8
	}
	if opts.Rounds <= 0 {
		opts.Rounds = 8
	}
	if c.ClockPeriodS <= 0 {
		return nil, fmt.Errorf("resize: circuit has no clock period")
	}
	base := sta.Analyze(c)
	if !base.Met() {
		return nil, fmt.Errorf("resize: circuit misses period before downsizing (worst slack %v)", base.WorstSlackS)
	}
	fHz := opts.ClockHz
	if fHz == 0 {
		fHz = 1 / c.ClockPeriodS
	}
	power.PropagateActivity(c)
	before := power.Analyze(c, fHz)
	sizeBefore := totalSize(c)

	inc := sta.NewIncremental(c)
	for round := 0; round < opts.Rounds; round++ {
		// Most-slack-first ordering from a fresh snapshot each round.
		moved := 0
		for _, i := range inc.SlackOrder() {
			g := &c.Gates[i]
			newSize := g.Size * opts.Step
			if newSize < opts.MinSize {
				continue
			}
			oldSize := g.Size
			g.Size = newSize
			if inc.TryResize(i) {
				moved++
			} else {
				g.Size = oldSize
			}
		}
		if moved == 0 {
			break
		}
	}

	after := power.Analyze(c, fHz)
	final := sta.Analyze(c)
	res := &Result{
		SizeReduction: 1 - totalSize(c)/sizeBefore,
		Before:        before,
		After:         after,
		TimingMet:     final.Met(),
	}
	if t := before.TotalW(); t > 0 {
		res.PowerSaving = 1 - after.TotalW()/t
	}
	if before.DynamicW > 0 {
		res.DynamicSaving = 1 - after.DynamicW/before.DynamicW
	}
	if res.SizeReduction > 0 {
		res.Sublinearity = res.DynamicSaving / res.SizeReduction
	}
	return res, nil
}

func totalSize(c *netlist.Circuit) float64 {
	s := 0.0
	for i := range c.Gates {
		s += c.Gates[i].Size
	}
	return s
}
