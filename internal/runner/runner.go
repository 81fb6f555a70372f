// Package runner is the parallel execution engine of the reproduction
// harness. It runs independent jobs — tables, figures, claim groups — on a
// bounded worker pool while preserving the deterministic output order of a
// serial run: every job writes to its own buffer, and buffers are released
// to the sink strictly in submission order. One failed job does not abort
// the others; per-job errors are collected and reported together. Parallel
// is the same isolation one level down: the fork-join of the independent
// passes inside one artifact.
package runner

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// Job is one independent unit of work. Run writes the job's complete output
// to w (a private buffer, never shared between jobs) and returns an error on
// failure. Partial output written before the failure is still emitted, so a
// job that dies mid-figure shows exactly how far it got.
type Job struct {
	ID  string
	Run func(w io.Writer) error
}

// Result pairs a job with its captured output and outcome, in submission
// order.
type Result struct {
	ID     string
	Output []byte
	Err    error
}

// Pool executes jobs with at most Workers goroutines. Workers ≤ 0 selects
// runtime.NumCPU(). The zero value is ready to use.
type Pool struct {
	Workers int
}

func (p Pool) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.NumCPU()
}

// RunToContext executes every job and returns the results in submission
// order. min(Workers, len(jobs)) goroutines run the jobs, each taking the
// next one in submission order. Job panics are recovered into errors so a
// crashing artifact cannot take down the remaining jobs.
//
// Emission streams: each job's output is copied to sink as soon as the job
// and all jobs before it have finished, so the sink sees the exact byte
// sequence of a serial run regardless of worker count or completion order.
// A nil sink skips emission (output stays in the results). The returned
// error reports sink write failures only; per-job errors are in the results
// (aggregate them with Errs).
//
// Jobs that have not started when ctx is canceled are skipped and record
// ctx's error instead of running. Jobs already executing run to completion
// (they hold gate/pool resources that must wind down normally), so a
// canceled run still returns one Result per job in submission order.
func (p Pool) RunToContext(ctx context.Context, sink io.Writer, jobs []Job) ([]Result, error) {
	n := len(jobs)
	results := make([]Result, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(p.workers(), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					results[i] = Result{ID: jobs[i].ID, Err: err}
				} else {
					var buf bytes.Buffer
					err := protect(func() error { return jobs[i].Run(&buf) })
					results[i] = Result{ID: jobs[i].ID, Output: buf.Bytes(), Err: err}
				}
				close(done[i])
			}
		}()
	}

	var sinkErr error
	for i := 0; i < n; i++ {
		<-done[i]
		if sink == nil || sinkErr != nil {
			continue
		}
		if _, err := sink.Write(results[i].Output); err != nil {
			// Keep draining the remaining jobs (the workers run them all)
			// but stop writing to a broken sink.
			sinkErr = fmt.Errorf("runner: writing output of %s: %w", results[i].ID, err)
		}
	}
	wg.Wait()
	return results, sinkErr
}

// Parallel runs every fn but the last on a goroutine of its own and the
// last on the caller's, and returns once every one of them has returned:
// the fork-join of an artifact's independent optimizer passes, each on a
// clone of its own. A panic in fn becomes fn's error, worded as a job's
// ("panic: <v>"): a crashing pass on a forked goroutine cannot take the
// process down, and one on the caller's cannot unwind it before its
// siblings are joined. The result is the first non-nil error in argument
// order, whichever fn finished first.
func Parallel(fns ...func() error) error {
	if len(fns) == 0 {
		return nil
	}
	errs := make([]error, len(fns))
	last := len(fns) - 1
	var wg sync.WaitGroup
	wg.Add(last)
	for i, fn := range fns[:last] {
		go func() {
			defer wg.Done()
			errs[i] = protect(fn)
		}()
	}
	errs[last] = protect(fns[last])
	wg.Wait()
	return cmp.Or(errs...)
}

// protect calls fn and turns a panic into the error "panic: <v>".
func protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// Errs aggregates the per-job failures of a run into a single error (nil if
// every job succeeded). Each failure keeps its job ID so the operator can
// re-run just the broken artifacts.
func Errs(results []Result) error {
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", r.ID, r.Err))
		}
	}
	return errors.Join(errs...)
}
