package repro

import (
	"context"
	"sort"
	"strings"
	"testing"

	"nanometer/internal/runner"
)

// knownDeviations lists every paper check the base reproduction fails, as
// "<artifact>/<finding>", sorted, each with its measured value against the
// paper's and its cause. A deviation stays listed until the model or the
// check is fixed; no tolerance is widened to turn it into a pass.
var knownDeviations = []string{
	"c3/continuous_vs_coarse",       // 0.514 vs 0.185: wrong pair; the paper's 15–22 % is on-the-fly vs the rich library (11 % here)
	"c4/clustered_dynamic_saving",   // 0.303 vs 0.475 ± 20 %: clustered CVS saves less than the paper's circuits; cause not yet found
	"c5/sensitivity_leakage_saving", // 0.885 vs 0.6 ± 0.34: hypothesis: the device model has no gate-oxide tunnelling leakage, which dual-Vth cannot cut
}

// TestKnownDeviations computes the base registry and checks that the set
// of failing paper checks is exactly knownDeviations: a new failure fails
// this test, and so does a silent fix of a listed one.
func TestKnownDeviations(t *testing.T) {
	results, err := ComputeAllCtx(context.Background(), runner.Pool{}, Artifacts(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var failing []string
	for _, res := range results {
		for _, it := range res.Items {
			if it.Claim == nil {
				continue
			}
			for _, f := range it.Claim.FailedChecks() {
				failing = append(failing, res.ID+"/"+f.Key)
			}
		}
	}
	sort.Strings(failing)
	if got, want := strings.Join(failing, " "), strings.Join(knownDeviations, " "); got != want {
		t.Errorf("failing paper checks [%s], want exactly the known deviations [%s]", got, want)
	}
}
