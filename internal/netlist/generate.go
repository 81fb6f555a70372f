package netlist

import (
	"fmt"
	"math/rand"

	"nanometer/internal/gate"
)

// GenParams controls the random-logic generator. The generator produces
// layered DAGs whose path-depth spread yields MPU-like slack distributions
// (the paper cites [21,22]: over half of all timing paths use less than half
// the clock cycle).
type GenParams struct {
	// Gates is the target gate count; Levels the logic depth.
	Gates, Levels int
	// PIs is the primary-input count; zero derives one from Gates.
	PIs int
	// DepthSpread in (0,1] widens the distribution of path depths: a gate
	// at level L draws fanins from up to DepthSpread·L levels back.
	DepthSpread float64
	// ShortPathFraction seeds this fraction of gates as near-PI shallow
	// logic, fattening the high-slack population.
	ShortPathFraction float64
	// WireCapPerFanoutF is the net wire capacitance added per fanout.
	// Zero selects a node-appropriate default (≈12 µm of local wire).
	WireCapPerFanoutF float64
	// InitialSize is the starting drive strength (unit cells).
	InitialSize float64
	// Seed fixes the generator.
	Seed int64
}

// DefaultGenParams returns a medium MPU-block-like configuration.
func DefaultGenParams() GenParams {
	return GenParams{
		Gates:             4000,
		Levels:            24,
		DepthSpread:       0.5,
		ShortPathFraction: 0.35,
		InitialSize:       2,
		Seed:              42,
	}
}

// Generate builds a random combinational circuit over the tech.
func Generate(t *Tech, p GenParams) (*Circuit, error) {
	if p.Gates < 4 {
		return nil, fmt.Errorf("netlist: need at least 4 gates, got %d", p.Gates)
	}
	if p.Levels < 2 {
		return nil, fmt.Errorf("netlist: need at least 2 levels, got %d", p.Levels)
	}
	if p.DepthSpread <= 0 || p.DepthSpread > 1 {
		p.DepthSpread = 0.5
	}
	if p.InitialSize <= 0 {
		p.InitialSize = 2
	}
	if p.PIs == 0 {
		p.PIs = p.Gates/8 + 4
	}
	if p.WireCapPerFanoutF == 0 {
		// ≈12 µm of 0.2 fF/µm local wire per fanout.
		p.WireCapPerFanoutF = 12e-6 * 2.0e-10
	}
	rng := rand.New(rand.NewSource(p.Seed))

	c := &Circuit{Tech: t, NumPIs: p.PIs, PIActivity: 0.15}
	// Assign a level to each gate: a shallow population plus a roughly
	// uniform spread over the remaining levels.
	levels := make([]int, p.Gates)
	for i := range levels {
		if rng.Float64() < p.ShortPathFraction {
			levels[i] = 1 + rng.Intn(max(1, p.Levels/4))
		} else {
			// Skew the remaining population toward shallow levels (real
			// blocks concentrate logic near the registers; the deep
			// critical spine is thin).
			f := rng.Float64()
			levels[i] = 1 + int(f*f*float64(p.Levels))
			if levels[i] > p.Levels {
				levels[i] = p.Levels
			}
		}
	}
	// Topological order = nondecreasing level. The gates of level l are
	// then the ID range [first[l], first[l+1]), complete before any gate
	// of a later level draws from it. uses tracks fanout counts for the
	// low-fanout bias.
	first := sortByLevel(levels, p.Levels)
	uses := make([]int, p.Gates)
	kinds := []gate.Kind{gate.Inv, gate.Nand, gate.Nand, gate.Nor, gate.Nand}
	// Every input list is carved out of one backing array (≤ 3 per gate),
	// capped so that no list can grow into its neighbour.
	edges := make([]int, 0, 3*p.Gates)
	c.Gates = make([]Gate, 0, p.Gates)
	for i := 0; i < p.Gates; i++ {
		lvl := levels[i]
		kind := kinds[rng.Intn(len(kinds))]
		inputs := 1
		if kind != gate.Inv {
			inputs = 2
			if rng.Float64() < 0.25 {
				inputs = 3
			}
		}
		g := Gate{
			ID:       i,
			Kind:     kind,
			Size:     p.InitialSize,
			VddClass: 0,
			VthClass: 0,
		}
		// Draw fanins from earlier levels within the spread window, or PIs.
		back := max(1, int(float64(lvl)*p.DepthSpread*float64(p.Levels))/p.Levels)
		loLvl := max(0, lvl-1-back)
		at, end := len(edges), len(edges)+inputs
		g.Inputs = edges[at:at:end]
		for k := 0; k < inputs; k++ {
			src := -1
			// Prefer the immediately preceding levels for long paths, and
			// bias toward not-yet-driven candidates so the netlist has few
			// dangling outputs (real blocks have gates ≫ register sinks).
			for attempt := 0; attempt < 4 && src < 0; attempt++ {
				pick := loLvl + rng.Intn(lvl-loLvl)
				lo, n := first[pick], first[pick+1]-first[pick]
				if n == 0 {
					continue
				}
				if rng.Float64() < 0.5 {
					best, bestUses := -1, 1<<30
					for trial := 0; trial < 4; trial++ {
						c := lo + rng.Intn(n)
						if uses[c] < bestUses {
							best, bestUses = c, uses[c]
						}
					}
					src = best
				} else {
					src = lo + rng.Intn(n)
				}
			}
			if src < 0 {
				g.Inputs = append(g.Inputs, PI(rng.Intn(p.PIs)))
			} else {
				g.Inputs = append(g.Inputs, src)
				uses[src]++
			}
		}
		edges = edges[:end]
		c.Gates = append(c.Gates, g)
	}
	c.Rebuild()
	// Wire load per net grows with fanout count.
	for i := range c.Gates {
		g := &c.Gates[i]
		n := len(g.Fanouts)
		if n == 0 {
			n = 1 // PO net still has wire
		}
		g.WireCapF = float64(n) * p.WireCapPerFanoutF * (0.5 + rng.Float64())
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("netlist: generated circuit invalid: %w", err)
	}
	return c, nil
}

// sortByLevel counting-sorts levels, each in [0, maxLevel], in place and
// returns the start of each level's run: level l fills
// levels[first[l]:first[l+1]].
func sortByLevel(levels []int, maxLevel int) (first []int) {
	first = make([]int, maxLevel+2)
	for _, l := range levels {
		first[l+1]++
	}
	for l := 1; l < len(first); l++ {
		first[l] += first[l-1]
	}
	for l := 0; l <= maxLevel; l++ {
		for i := first[l]; i < first[l+1]; i++ {
			levels[i] = l
		}
	}
	return first
}
