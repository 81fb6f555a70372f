package powergrid

import (
	"fmt"
	"math"

	"nanometer/internal/mathx"
)

// Mesh is a 2-D resistive power-grid model of one bump cell: an n×n node
// mesh spanning the bump pitch, rails of the sized width in both routing
// directions, uniform (hot-spot) current draw per node, and the bump as the
// voltage source in the center. It validates the 1-D analytic strip model
// (which should be conservative, since it ignores 2-D current spreading).
type Mesh struct {
	// N is the mesh dimension (nodes per side, odd so a center node
	// exists).
	N int
	// PitchM is the cell span (the bump pitch).
	PitchM float64
	// EdgeOhms is the resistance of one mesh edge.
	EdgeOhms float64
	// NodeCurrentA is the draw per mesh node.
	NodeCurrentA float64
}

// Mesh dimension limits, enforced here (not just at the CLI/HTTP
// boundaries) because the serving layer exposes the dimension to untrusted
// query strings: MinMeshN is the smallest grid that still has an interior
// ring around the pinned center bump, and MaxMeshN is input validation
// that also bounds the unit table (one cell per odd n up to it) and the
// cost of one φ evaluation ((n+1)²/4 terms, under 1 ms at 1023).
const (
	MinMeshN = 5
	MaxMeshN = 1023
)

// validMeshN reports whether n is a grid side Solve accepts: odd, so a
// center bump node exists, and within [MinMeshN, MaxMeshN].
func validMeshN(n int) bool { return n >= MinMeshN && n <= MaxMeshN && n%2 == 1 }

// NewMesh discretizes a grid spec with rails of width railWidthM at rail
// pitch railPitchM into an n×n mesh (n forced odd so a center bump node
// exists; n outside [MinMeshN, MaxMeshN] is rejected rather than clamped,
// so nonsense like a negative dimension fails loudly at the model layer
// even if a caller skipped boundary validation).
func NewMesh(s GridSpec, railWidthM, railPitchM float64, n int) (*Mesh, error) {
	if n < MinMeshN {
		return nil, fmt.Errorf("powergrid: mesh dimension %d too small (min %d)", n, MinMeshN)
	}
	if n%2 == 0 {
		n++
	}
	if n > MaxMeshN {
		return nil, fmt.Errorf("powergrid: mesh dimension %d too large (max %d)", n, MaxMeshN)
	}
	if railWidthM <= 0 || railPitchM <= 0 {
		return nil, fmt.Errorf("powergrid: non-positive rail geometry (w=%g, p=%g)", railWidthM, railPitchM)
	}
	seg := s.BumpPitchM / float64(n-1)
	// Equivalent sheet: rails of width W at pitch p give an effective
	// sheet resistance of ρs·p/W; a mesh edge spans one square of it.
	rEdge := s.Node.TopMetalSheetOhms() * railPitchM / railWidthM
	j := s.currentDensity()
	return &Mesh{
		N:            n,
		PitchM:       s.BumpPitchM,
		EdgeOhms:     rEdge,
		NodeCurrentA: j * seg * seg,
	}, nil
}

// Solve returns the maximum IR drop on the net with the center node
// pinned at 0 V and reflective (Neumann) cell boundaries. The same drop
// occurs on the ground net, so the supply-loop drop is twice the returned
// value. The drop is |NodeCurrentA|·EdgeOhms·φ(N), where φ(N) is the
// maximum drop of the unit system for grid side N, evaluated once per N
// as a closed-form spectral sum and kept for the life of the process
// (unitTable).
//
// The error classes are the ones a direct solve of the same system
// reports: an infinite conductance (R = 0) or a non-finite draw wraps
// mathx.ErrNotSPD, and any other R outside (0, ∞) is rejected as a
// non-positive conductance would be. Inputs are checked before the table
// is touched.
func (m *Mesh) Solve() (maxDropV float64, err error) {
	switch {
	case !validMeshN(m.N):
		return 0, fmt.Errorf("powergrid: mesh dimension %d is not an odd size in [%d, %d]", m.N, MinMeshN, MaxMeshN)
	case m.EdgeOhms == 0:
		return 0, fmt.Errorf("powergrid: mesh solve: zero edge resistance (infinite conductance): %w", mathx.ErrNotSPD)
	case !(m.EdgeOhms > 0) || math.IsInf(m.EdgeOhms, 1):
		return 0, fmt.Errorf("powergrid: mesh solve: edge resistance %g outside (0, ∞)", m.EdgeOhms)
	case math.IsNaN(m.NodeCurrentA) || math.IsInf(m.NodeCurrentA, 0):
		return 0, fmt.Errorf("powergrid: mesh solve: non-finite node current %g: %w", m.NodeCurrentA, mathx.ErrNotSPD)
	}
	drop := math.Abs(m.NodeCurrentA) * m.EdgeOhms * unitDrops.drop(m.N)
	if math.IsInf(drop, 0) {
		return 0, fmt.Errorf("powergrid: mesh solve: drop overflows (I=%g A, R=%g Ω)", m.NodeCurrentA, m.EdgeOhms)
	}
	return drop, nil
}

// PessimisticRatio solves the 2-D smeared mesh for a sized grid and returns
// mesh-loop-drop / top-metal-budget. The mesh routes *all* current —
// including the share the designer's lower grid would normally carry
// sideways — through the top-level sheet, so ratios well above 1 quantify
// how much the analytic model leans on a healthy lower grid.
func PessimisticRatio(s GridSpec, n int) (ratio float64, err error) {
	mesh, err := PessimisticMesh(s, n)
	if err != nil {
		return 0, err
	}
	drop, err := mesh.Solve()
	if err != nil {
		return 0, err
	}
	return 2 * drop / s.topBudgetV(), nil
}

// PessimisticMesh builds (without solving) the mesh PessimisticRatio
// solves: the sized grid's top-level sheet carrying all current.
func PessimisticMesh(s GridSpec, n int) (*Mesh, error) {
	sz, err := s.SizeRails()
	if err != nil {
		return nil, err
	}
	return NewMesh(s, sz.RailWidthM, s.BumpPitchM, n)
}

// Ladder is the 1-D discretization of one rail span between two bumps: n
// segments with the strip current tapped uniformly along the span and both
// ends pinned — the exact structure the analytic sizing integrates.
type Ladder struct {
	// N is the number of segments.
	N int
	// SegOhms is the per-segment rail resistance; TapCurrentA the draw per
	// interior node.
	SegOhms, TapCurrentA float64
}

// NewLadder discretizes a sized rail span.
func NewLadder(s GridSpec, railWidthM float64, n int) (*Ladder, error) {
	if n < 4 {
		n = 4
	}
	if railWidthM <= 0 {
		return nil, fmt.Errorf("powergrid: non-positive rail width %g", railWidthM)
	}
	seg := s.BumpPitchM / float64(n)
	return &Ladder{
		N:           n,
		SegOhms:     s.Node.TopMetalSheetOhms() * seg / railWidthM,
		TapCurrentA: s.currentDensity() * s.BumpPitchM * seg,
	}, nil
}

// Solve returns the peak drop along the span (both ends grounded). The
// interior nodes 1..N-1 form a tridiagonal system (diagonal 2g,
// off-diagonals −g), eliminated in place in mathx.SolveDense's operation
// order. The matrix is diagonally dominant, so SolveDense's partial pivot
// never swaps rows and the answer is bit-identical to the dense solve.
func (l *Ladder) Solve() (float64, error) {
	n := l.N - 1
	if n < 1 {
		return 0, fmt.Errorf("powergrid: ladder too short")
	}
	g := 1 / l.SegOhms
	d := make([]float64, n)
	v := make([]float64, n)
	for i := range d {
		d[i], v[i] = 2*g, l.TapCurrentA
	}
	for i := 0; i < n; i++ {
		if d[i] == 0 {
			return 0, fmt.Errorf("powergrid: singular matrix at row %d", i)
		}
		if i+1 < n {
			inv := 1 / d[i]
			f := -g * inv
			d[i+1] -= f * (-g)
			v[i+1] -= f * v[i]
		}
	}
	v[n-1] /= d[n-1]
	for i := n - 2; i >= 0; i-- {
		v[i] = (v[i] - (-g)*v[i+1]) / d[i]
	}
	peak := 0.0
	for _, x := range v {
		if x > peak {
			peak = x
		}
	}
	return peak, nil
}

// ValidateAnalytic solves the 1-D ladder for a sized grid and returns the
// ratio ladder-loop-drop / top-metal-budget. Values ≈ 1 (from below as the
// discretization refines) confirm the closed-form sizing.
func ValidateAnalytic(s GridSpec, n int) (ratio float64, err error) {
	sz, err := s.SizeRails()
	if err != nil {
		return 0, err
	}
	lad, err := NewLadder(s, sz.RailWidthM, n)
	if err != nil {
		return 0, err
	}
	drop, err := lad.Solve()
	if err != nil {
		return 0, err
	}
	return 2 * drop / s.topBudgetV(), nil
}
