// Package repro is the artifact registry of the reproduction harness: one
// entry per table, figure, and quantified claim of the paper. The package
// only computes: Compute produces a typed, JSON-serializable result
// (internal/result) from the model stack, and callers hand the results to
// an internal/render encoding to become terminal text, JSON, or CSV.
// Compute is pure and deterministic, so results are memoized in a
// process-wide cache (artifact ID + compute-options hash) — repeated
// requests in one process, the shape a serving layer produces, compute each
// artifact once. Artifacts are independent of each other: ComputeAllCtx
// and ComputeAllVariants run them concurrently on the runner pool and
// return the results in registry order, so the encoded report is the same
// for any worker count. cmd/nanorepro is a thin flag-parsing shell around
// this package; bench_test.go drives the same registry for the full-report
// measurement.
package repro

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"nanometer/internal/device"
	"nanometer/internal/powergrid"
	"nanometer/internal/render"
	"nanometer/internal/result"
	"nanometer/internal/runner"
	"nanometer/internal/scenario"
)

// Options configures a run's compute; how results are written is
// render.Text's business. The zero value computes the base roadmap.
type Options struct {
	// NoCache bypasses the process-wide result cache, forcing every
	// render to recompute (benchmarks, freshness-critical callers).
	NoCache bool
	// MeshN overrides the n×n power-grid validation mesh of the C8
	// artifact (0 = the experiments default, 41). A compute-side option:
	// it reaches the models, so it participates in the cache key. Callers
	// accepting MeshN from users (flags, query strings) must run it
	// through ValidateMeshN first.
	MeshN int
	// Scenario selects the roadmap the models compute against. nil means
	// the base ITRS-2000 table and reproduces the seed output byte for
	// byte. A compute-side option: every artifact's numbers depend on the
	// roadmap, so the scenario's content digest participates in the cache
	// key (and through it the ETags and the result store).
	// Scenarios from untrusted input must come through scenario.Parse,
	// which validates; a sweep-bearing scenario should be expanded with
	// Variants() before it reaches Options.
	Scenario *scenario.Scenario
}

// ValidateMeshN checks a user-supplied mesh dimension at the trust
// boundary: both the CLI flag and the daemon's query parameter funnel
// through here, so -mesh-n -5 (or 1, 2, or a memory-exhausting 10⁶) is
// rejected with one clear message instead of flowing into solver setup.
// 0 is valid and selects the experiments default. powergrid enforces the
// same limits itself for programmatic callers.
func ValidateMeshN(n int) error {
	if n == 0 {
		return nil
	}
	if n < powergrid.MinMeshN {
		return fmt.Errorf("repro: mesh-n %d too small: an IR-drop mesh needs at least %d nodes per side (0 selects the default)", n, powergrid.MinMeshN)
	}
	if n > powergrid.MaxMeshN {
		return fmt.Errorf("repro: mesh-n %d too large: capped at %d nodes per side (%d² unknowns) to bound solver memory", n, powergrid.MaxMeshN, powergrid.MaxMeshN)
	}
	return nil
}

// lab resolves the roadmap the options select: the base laboratory for the
// nil scenario, the scenario's resolved laboratory otherwise. Resolution is
// memoized on the scenario, so the 20+ artifacts of one run share a single
// table build and calibration cache.
func (o Options) lab() (*device.Lab, error) { return o.Scenario.Resolve() }

// Artifact is one reproducible unit: a stable ID (t1, f3, c8, ...), a title
// for listings, and a compute function producing its typed result.
type Artifact struct {
	ID      string
	Title   string
	Compute func(opts Options) (*result.Result, error)
}

// compute runs the artifact's compute function and stamps the registry
// identity onto the result, so compute functions stay ignorant of their
// registration. Under a scenario it also stamps the scenario name and
// swaps the paper's quoted-value checks for the scenario's expectations.
func (a Artifact) compute(opts Options) (*result.Result, error) {
	res, err := a.Compute(opts)
	if err != nil {
		return nil, err
	}
	res.ID, res.Title = a.ID, a.Title
	if opts.Scenario != nil {
		res.Scenario = opts.Scenario.Name
		if err := applyScenarioChecks(res, opts.Scenario); err != nil {
			return nil, err
		}
	}
	if err := res.Validate(); err != nil {
		return nil, err
	}
	return res, nil
}

// applyScenarioChecks relaxes a result computed under a non-base roadmap:
// the paper's quoted numbers describe the ITRS-2000 table, so their checks
// are dropped, and the scenario's own expectations (scenario-appropriate
// values with their own tolerances) are installed in their place. An
// expectation naming a finding the artifact doesn't produce is an error —
// a typo in an expectation must fail loudly, not silently always-pass.
func applyScenarioChecks(res *result.Result, s *scenario.Scenario) error {
	expect := s.ExpectFor(res.ID)
	matched := make([]bool, len(expect))
	for _, it := range res.Items {
		if it.Claim == nil {
			continue
		}
		for i := range it.Claim.Findings {
			f := &it.Claim.Findings[i]
			f.Check = nil
			for j, e := range expect {
				if f.Key == e.Check {
					f.Check = result.NewCheck(f.Value, e.Value, e.RelTol)
					matched[j] = true
				}
			}
		}
	}
	for j, e := range expect {
		if !matched[j] {
			return fmt.Errorf("repro: scenario %s expects %s/%s, but artifact %s has no such finding",
				s.Name, e.Artifact, e.Check, res.ID)
		}
	}
	return nil
}

// Render computes the artifact (through the cache unless opts.NoCache) and
// encodes it as default terminal text.
func (a Artifact) Render(w io.Writer, opts Options) error {
	res, err := a.ComputeCached(opts)
	if err != nil {
		return err
	}
	return render.Text{}.Encode(w, res)
}

// Artifacts returns the full registry in canonical emission order.
func Artifacts() []Artifact {
	return []Artifact{
		{"t1", "Table 1: published NMOS devices vs ITRS projections", computeTable1},
		{"t2", "Table 2: analytical Ioff scaling", computeTable2},
		{"f1", "Figure 1: Pstatic/Pdynamic vs switching activity", computeFigure1},
		{"f2", "Figure 2: dual-Vth scaling", computeFigure2},
		{"f3", "Figure 3: delay vs Vdd under Vth policies", computeFigure3},
		{"f4", "Figure 4: Pdynamic/Pstatic vs Vdd", computeFigure4},
		{"f5", "Figure 5: IR-drop scaling", computeFigure5},
		{"c1", "dynamic thermal management (§2.1)", computeC1},
		{"c2", "global signaling census and low-swing alternative (§2.2)", computeC2},
		{"c3", "library optimization at fixed timing (§2.3)", computeC3},
		{"c4", "clustered voltage scaling (§2.4)", computeC4},
		{"c5", "dual-Vth assignment (§3.2.2)", computeC5},
		{"c6", "re-sizing vs multi-Vdd (§3.3)", computeC6},
		{"c7", "Vdd floor under the ITRS static constraint (§3.3)", computeC7},
		{"c8", "ITRS bump plan at 35 nm (§4)", computeC8},
		{"c9", "wakeup transients and MCML (§4)", computeC9},
		{"c10", "intra-cell multi-Vth stacks (§3.3 close)", computeC10},
		{"c11", "standby-technique comparison and scalability (§3.2.1)", computeC11},
		{"c12", "tolerable-swing study (the §2.2 open question)", computeC12},
		{"c13", "signaling-primitive planner (conclusion #2's EDA tool)", computeC13},
	}
}

// Select filters the registry by artifact ID (case-insensitive; empty or nil
// selects everything) preserving canonical order, and rejects unknown IDs so
// a typo in -only fails loudly instead of silently skipping.
func Select(ids []string) ([]Artifact, error) {
	all := Artifacts()
	want := map[string]bool{}
	for _, id := range ids {
		id = strings.TrimSpace(strings.ToLower(id))
		if id != "" {
			want[id] = true
		}
	}
	if len(want) == 0 {
		return all, nil
	}
	var sel []Artifact
	for _, a := range all {
		if want[a.ID] {
			sel = append(sel, a)
			delete(want, a.ID)
		}
	}
	if len(want) > 0 {
		var unknown []string
		for id := range want {
			unknown = append(unknown, id)
		}
		// Sorted so the error message is deterministic — callers (CLI, HTTP
		// error bodies, tests) see one stable spelling of the same mistake.
		sort.Strings(unknown)
		return nil, fmt.Errorf("repro: unknown artifact id(s) %v (use -list)", unknown)
	}
	return sel, nil
}

// ComputeAllCtx computes the artifacts on the pool — ComputeAllVariants
// over the one variant opts.Scenario — and returns the results in registry
// order. A failed artifact leaves a nil slot and its error in the returned
// aggregate; the healthy results are still usable. Artifacts that have not
// started when ctx is canceled are skipped the same way, while in-flight
// computes finish, so the cache is never poisoned by a partial result.
func ComputeAllCtx(ctx context.Context, pool runner.Pool, arts []Artifact, opts Options) ([]*result.Result, error) {
	grouped, err := ComputeAllVariants(ctx, pool, arts, opts, []*scenario.Scenario{opts.Scenario})
	return grouped[0], err
}
