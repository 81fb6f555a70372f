package thermal

import "math/rand"

// WorkloadParams shapes a synthetic MPU power trace. Powers are at full
// frequency and nominal supply; the DTM controller derates them.
type WorkloadParams struct {
	// TheoreticalMaxW is the power-virus (synthetic worst case) level.
	TheoreticalMaxW float64
	// TypicalFraction is the mean power of real applications relative to
	// the theoretical maximum (the paper's ≈75 % for "power-hungry
	// applications"; ordinary code is lower still).
	TypicalFraction float64
	// BurstFraction is the stationary fraction of intervals spent in
	// bursts at BurstLevel×TheoreticalMaxW.
	BurstFraction float64
	BurstLevel    float64
	// NoiseFraction is the relative amplitude of interval-to-interval
	// variation.
	NoiseFraction float64
	// Seed makes the trace deterministic.
	Seed int64
}

// DefaultWorkload returns parameters producing a power-hungry-application
// trace whose effective demand is ≈75 % of the theoretical worst case.
func DefaultWorkload(theoreticalMaxW float64) WorkloadParams {
	return WorkloadParams{
		TheoreticalMaxW: theoreticalMaxW,
		TypicalFraction: 0.70,
		BurstFraction:   0.15,
		BurstLevel:      0.95,
		NoiseFraction:   0.08,
		Seed:            1,
	}
}

// BurstMeanLength is the mean burst duration in control intervals. Burst
// lengths are geometric on {1, 2, ...} with this mean.
const BurstMeanLength = 20.0

// Generate produces a trace of n control intervals. Bursting is a two-state
// Markov chain: a burst continues with probability 1−1/BurstMeanLength (so
// lengths are geometric with mean BurstMeanLength), and the entry
// probability from the non-burst state is set so the chain's stationary
// burst occupancy equals BurstFraction exactly. Exactly two RNG draws are
// consumed per interval (state, then noise), so the trace is deterministic
// per Seed and a prefix of a longer trace from the same seed.
func (p WorkloadParams) Generate(n int) []float64 {
	out := make([]float64, n)
	p.Stream().Fill(out)
	return out
}

// Stream generates the same trace as Generate block by block, so
// arbitrarily long workloads never materialize as a slice. Generate(n)
// equals the first n values of a fresh Stream (prefix property), however
// they are split between Fill calls.
type Stream struct {
	p           WorkloadParams
	rng         *rand.Rand
	enter, exit float64
	base        float64
	inBurst     bool
}

// Stream returns a fresh generator positioned at interval 0.
func (p WorkloadParams) Stream() *Stream {
	s := &Stream{
		p:    p,
		rng:  rand.New(rand.NewSource(p.Seed)),
		base: p.TypicalFraction * p.TheoreticalMaxW,
	}
	// Transition probabilities: exit = P(burst ends after this interval),
	// enter = P(non-burst interval starts a burst), chosen so the
	// stationary occupancy enter/(enter+exit) equals BurstFraction.
	s.exit = 1 / BurstMeanLength
	switch {
	case p.BurstFraction >= 1:
		s.enter, s.exit = 1, 0
	case p.BurstFraction > 0:
		s.enter = s.exit * p.BurstFraction / (1 - p.BurstFraction)
	}
	return s
}

// Fill writes the next len(buf) intervals of the trace into buf.
func (s *Stream) Fill(buf []float64) {
	rng, inBurst := s.rng, s.inBurst
	enter, exit := s.enter, s.exit
	base, burst := s.base, s.p.BurstLevel*s.p.TheoreticalMaxW
	noise, maxW := s.p.NoiseFraction, s.p.TheoreticalMaxW
	for i := range buf {
		// One state draw per interval: a burst that ends cannot re-arm in
		// the same interval, and an interval is in-burst from its first
		// tick, so a length-L burst occupies exactly L intervals.
		if r := rng.Float64(); inBurst {
			inBurst = r >= exit
		} else {
			inBurst = r < enter
		}
		level := base
		if inBurst {
			level = burst
		}
		level *= 1 + noise*(2*rng.Float64()-1)
		if level > maxW {
			level = maxW
		}
		if level < 0 {
			level = 0
		}
		buf[i] = level
	}
	s.inBurst = inBurst
}

// PowerVirus returns a flat trace at the theoretical worst case — the
// synthetic input sequence "not realized in practice" that packages would
// otherwise have to be designed for.
func PowerVirus(theoreticalMaxW float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = theoreticalMaxW
	}
	return out
}
