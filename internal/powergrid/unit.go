package powergrid

import (
	"math"
	"sync"
)

// unitTable holds φ(n), the maximum drop of the unit mesh system (edge
// resistance 1 Ω, draw 1 A per node) for each odd grid side n in
// [MinMeshN, MaxMeshN], one once-cell per n. The mesh system is exactly
// linear in its two scalars: every edge has conductance g = 1/EdgeOhms and
// every node draws NodeCurrentA, so A = g·L and b = I·1 with L fixed by n
// alone, and the drops of any (R, I) mesh are |I|·R times the unit ones.
// φ is a pure function of n, so nothing ever invalidates a cell, and the
// table is bounded by construction: at most one float per admissible n.
type unitTable [(MaxMeshN-MinMeshN)/2 + 1]unitCell

type unitCell struct {
	once sync.Once
	phi  float64
}

// unitDrops is the process-lifetime table Mesh.Solve reads.
var unitDrops unitTable

// drop returns φ(n) for an odd n in [MinMeshN, MaxMeshN] (the caller
// validates n), evaluating it on first use. Concurrent first callers for
// one n wait on the single evaluation.
func (t *unitTable) drop(n int) float64 {
	c := &t[(n-MinMeshN)/2]
	c.once.Do(func() {
		c.phi = unitDrop(n)
		meshSolves.Add(1)
	})
	return c.phi
}

// unitDrop returns φ(n), the maximum drop of the unit n×n mesh (n odd)
// whose centre node is pinned at 0 V, as an exact spectral sum.
//
// The unit system is the n×n Neumann (reflective-boundary) Laplacian L
// with every node drawing 1 A and the centre supplying all n² of it, so
// L·v = 1 − n²·e_c up to a constant, fixed by v_c = 0. L is diagonalised
// by the separable DCT-II basis, whose 1-D modes cos(πk(i+½)/n) have
// eigenvalues 4 sin²(πk/2n). The right-hand side is orthogonal to every
// non-constant mode except through its centre spike, and every odd k
// vanishes at the centre i = (n−1)/2 of an odd grid, so only the even
// modes k = 2a, a = 0..m with m = (n−1)/2, carry drop. At the centre they
// read (−1)^a and at a corner cos(πa/n), so the corner drop is
//
//	φ(n) = Σ_{a,b=0..m, (a,b)≠(0,0)} ε_a·ε_b·(1 − t_a·t_b) / (4 sin²(πa/n) + 4 sin²(πb/n))
//
// with t_a = (−1)^a·cos(πa/n), ε₀ = 1 and ε_a = 2 for a > 0. The corner is
// where the drop peaks: the unit tests hold φ to the maximum over every
// node of a dense and a conjugate-gradient solve of the assembled mesh.
// Every term is positive (|t_a·t_b| < 1 off the origin), so nothing
// cancels; Neumaier-compensated summation keeps the result independent of
// the summation order to round-off.
func unitDrop(n int) float64 {
	m := (n - 1) / 2
	s := make([]float64, m+1)   // 4 sin²(πa/n)
	tw := make([]float64, m+1)  // t_a
	eps := make([]float64, m+1) // ε_a
	for a := range s {
		sin, cos := math.Sincos(math.Pi * float64(a) / float64(n))
		s[a], tw[a], eps[a] = 4*sin*sin, cos, 2
		if a%2 == 1 {
			tw[a] = -cos
		}
	}
	eps[0] = 1
	sum, comp := 0.0, 0.0
	for a := range s {
		for b := range s {
			if a == 0 && b == 0 {
				continue
			}
			x := eps[a] * eps[b] * (1 - tw[a]*tw[b]) / (s[a] + s[b])
			t := sum + x
			if sum >= x { // both are positive
				comp += (sum - t) + x
			} else {
				comp += (x - t) + sum
			}
			sum = t
		}
	}
	return sum + comp
}
