package repro

import (
	"context"
	"fmt"
	"io"

	"nanometer/internal/result"
	"nanometer/internal/runner"
	"nanometer/internal/scenario"
)

// ComputeAllVariants computes a sweep in ONE pool run over every variant ×
// artifact, so workers stay busy across variant boundaries. Results come
// back grouped per variant, in grid order, with nil slots for failed
// artifacts; when a sweep has several variants the aggregated failures
// name each as artifact@variant.
func ComputeAllVariants(ctx context.Context, pool runner.Pool, arts []Artifact, opts Options, variants []*scenario.Scenario) ([][]*result.Result, error) {
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
