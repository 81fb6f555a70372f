package repro

import (
	"testing"

	"nanometer/internal/itrs"
	"nanometer/internal/powergrid"
)

// FuzzValidateMeshN fuzzes the one integer every trust boundary (CLI
// flag, daemon query string) funnels through. Properties: the accept set
// is exactly {0} ∪ [MinMeshN, MaxMeshN], rejections carry a message, and
// the validator never disagrees with the model layer — any n it accepts
// must be accepted by powergrid.NewMesh too, so a validated request can
// never fail later with a bounds error from the solver.
func FuzzValidateMeshN(f *testing.F) {
	for _, n := range []int{0, 1, -1, 4, 5, 6, 41, 255, 1022, 1023, 1024, -1 << 62, 1 << 62} {
		f.Add(n)
	}
	node := itrs.Base().MustNode(50)
	spec := powergrid.DefaultSpec(node, node.EffectiveBumpPitchM())
	f.Fuzz(func(t *testing.T, n int) {
		err := ValidateMeshN(n)
		inBounds := n == 0 || (n >= powergrid.MinMeshN && n <= powergrid.MaxMeshN)
		if inBounds && err != nil {
			t.Fatalf("ValidateMeshN(%d) = %v, want accept", n, err)
		}
		if !inBounds {
			if err == nil {
				t.Fatalf("ValidateMeshN(%d) accepted out-of-bounds dimension", n)
			}
			if err.Error() == "" {
				t.Fatalf("ValidateMeshN(%d) rejected with an empty message", n)
			}
			return
		}
		if n == 0 {
			return // 0 selects the default; NewMesh never sees it
		}
		// NewMesh only derives scalars here (the solve is separate), so
		// exercising the real model layer stays cheap even at n = 1023.
		if _, err := powergrid.NewMesh(spec, 1e-6, 1e-4, n); err != nil {
			t.Fatalf("ValidateMeshN accepted %d but powergrid.NewMesh rejected it: %v", n, err)
		}
	})
}
