package repro

import (
	"context"
	"fmt"
	"io"

	"nanometer/internal/experiments"
	"nanometer/internal/powergrid"
	"nanometer/internal/result"
	"nanometer/internal/runner"
	"nanometer/internal/scenario"
)

// PrimeVariants batch-solves the dominant compute of a multi-variant sweep
// before the per-variant runs start: the c8 power-grid mesh (~39 of 40
// gate-weight units at n = 255) is structurally identical across variants —
// sweeps perturb conductance and current, never the grid — so all variants'
// meshes solve in one lockstep pattern traversal (powergrid.SolveMeshBatch)
// and each variant's later solo solve consumes its parked, bit-identical
// drop. Strictly best-effort and semantically invisible: cache and
// singleflight behavior per variant is unchanged (priming probes only
// in-memory presence, never through ComputeCached, so hit/miss counters
// stay exactly what a sweep without priming would record), and any error
// just leaves a variant to the solo path where it can surface attributably.
//
// No-ops unless there are ≥ 2 variants and the selection includes c8 (the
// only artifact whose compute is mesh-bound).
func PrimeVariants(arts []Artifact, opts Options, variants []*scenario.Scenario) {
	if len(variants) < 2 {
		return
	}
	var heavy *Artifact
	for i := range arts {
		if arts[i].ID == "c8" {
			heavy = &arts[i]
			break
		}
	}
	if heavy == nil {
		return
	}
	meshes := make([]*powergrid.Mesh, 0, len(variants))
	for _, v := range variants {
		vo := opts
		vo.Scenario = v
		// Memory-presence probe only: a cached (or in-flight) cell means
		// this variant's solve will not run, so priming it would waste a
		// batch slot. NoCache recomputes regardless, so it always primes.
		if !vo.NoCache && heavy.cachedInMemory(vo) {
			continue
		}
		lab, err := vo.lab()
		if err != nil {
			continue
		}
		m, err := experiments.BumpMesh(lab, vo.MeshN)
		if err != nil {
			continue
		}
		meshes = append(meshes, m)
	}
	powergrid.PrimeSolves(meshes)
}

// cachedInMemory reports whether a cell for this artifact + options already
// exists in the in-memory cache (computed OR in flight — either way the
// variant's compute will not solve). Deliberately NOT ComputeCached: that
// counts a hit or a miss, and priming must not distort the hit/miss
// telemetry the smokes assert exactly. The second-level result
// store is deliberately not probed — a store-warmed variant wastes its
// batch slot, which costs a little shared work, not correctness.
func (a Artifact) cachedInMemory(opts Options) bool {
	_, ok := cache.Load().m.Load(a.ID + "\x00" + opts.computeKey())
	return ok
}

// VariantJobs flattens a sweep into ONE job list — every variant × artifact
// in variant-major order — so a single pool run keeps all workers busy
// across variant boundaries instead of draining between sequential
// per-variant runs. Emission order (and every output byte) is identical to
// the historical sequential loop for any worker count; job IDs are
// qualified with the variant name when a sweep has several, so aggregated
// errors say which variant's artifact failed. A nil enc selects the text
// encoder for opts. Primes the sweep's mesh solves first (PrimeVariants).
func VariantJobs(arts []Artifact, opts Options, variants []*scenario.Scenario, enc Encoder) []runner.Job {
	PrimeVariants(arts, opts, variants)
	jobs := make([]runner.Job, 0, len(arts)*len(variants))
	for _, v := range variants {
		vo := opts
		vo.Scenario = v
		e := enc
		if e == nil {
			e = textEncoder(vo)
		}
		vjobs := EncodeJobs(arts, vo, e)
		if v != nil && len(variants) > 1 {
			for i := range vjobs {
				vjobs[i].ID = arts[i].ID + "@" + v.Name
			}
		}
		jobs = append(jobs, vjobs...)
	}
	return jobs
}

// ComputeAllVariants is ComputeAllCtx across a sweep: one flattened pool
// run (primed like VariantJobs), results grouped per variant in
// variant-major order with nil slots for failed artifacts, failures
// aggregated with variant-qualified IDs.
func ComputeAllVariants(ctx context.Context, pool runner.Pool, arts []Artifact, opts Options, variants []*scenario.Scenario) ([][]*result.Result, error) {
	PrimeVariants(arts, opts, variants)
	out := make([][]*result.Result, len(variants))
	jobs := make([]runner.Job, 0, len(arts)*len(variants))
	for vi, v := range variants {
		out[vi] = make([]*result.Result, len(arts))
		vo := opts
		vo.Scenario = v
		for ai, a := range arts {
			vi, ai, a := vi, ai, a
			id := a.ID
			if v != nil && len(variants) > 1 {
				id = fmt.Sprintf("%s@%s", a.ID, v.Name)
			}
			jobs = append(jobs, runner.Job{ID: id, Run: func(io.Writer) error {
				res, err := a.ComputeCached(vo)
				out[vi][ai] = res
				return err
			}})
		}
	}
	results, _ := pool.RunToContext(ctx, nil, jobs)
	return out, runner.Errs(results)
}
