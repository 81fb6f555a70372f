package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// spinJobs builds n jobs whose completion order is scrambled by busy work so
// ordered emission is actually exercised (job i does more work than job i+1).
func spinJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{
			ID: fmt.Sprintf("j%d", i),
			Run: func(w io.Writer) error {
				s := 0.0
				for k := 0; k < (n-i)*20000; k++ {
					s += float64(k)
				}
				_, err := fmt.Fprintf(w, "job %d (%.0f)\n", i, s)
				return err
			},
		}
	}
	return jobs
}

func TestRunToPreservesOrder(t *testing.T) {
	jobs := spinJobs(16)
	var serial, parallel bytes.Buffer
	if _, err := (Pool{Workers: 1}).RunToContext(context.Background(), &serial, jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := (Pool{Workers: 8}).RunToContext(context.Background(), &parallel, jobs); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("parallel output differs from serial:\n%q\nvs\n%q", parallel.String(), serial.String())
	}
	for i := 0; i < 16; i++ {
		want := fmt.Sprintf("job %d ", i)
		line := strings.Split(serial.String(), "\n")[i]
		if !strings.HasPrefix(line, want) {
			t.Fatalf("line %d = %q, want prefix %q", i, line, want)
		}
	}
}

func TestBoundedConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	jobs := make([]Job, 24)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprintf("j%d", i), Run: func(io.Writer) error {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			s := 0.0
			for k := 0; k < 50000; k++ {
				s += float64(k)
			}
			_ = s
			inFlight.Add(-1)
			return nil
		}}
	}
	_, _ = Pool{Workers: workers}.RunToContext(context.Background(), nil, jobs)
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, pool bound is %d", p, workers)
	}
}

func TestErrorsDoNotAbortOtherJobs(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job{
		{ID: "ok1", Run: func(w io.Writer) error { fmt.Fprintln(w, "one"); return nil }},
		{ID: "bad", Run: func(w io.Writer) error { fmt.Fprintln(w, "partial"); return boom }},
		{ID: "panics", Run: func(io.Writer) error { panic("kaboom") }},
		{ID: "ok2", Run: func(w io.Writer) error { fmt.Fprintln(w, "two"); return nil }},
	}
	var out bytes.Buffer
	results, err := Pool{Workers: 4}.RunToContext(context.Background(), &out, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Every job ran; partial output of the failed job is kept.
	if got := out.String(); got != "one\npartial\ntwo\n" {
		t.Fatalf("output = %q", got)
	}
	agg := Errs(results)
	if agg == nil {
		t.Fatal("expected aggregated errors")
	}
	if !errors.Is(agg, boom) {
		t.Fatalf("aggregate %v does not wrap the job error", agg)
	}
	for _, frag := range []string{"bad:", "panics:", "kaboom"} {
		if !strings.Contains(agg.Error(), frag) {
			t.Fatalf("aggregate %q missing %q", agg.Error(), frag)
		}
	}
	if results[0].Err != nil || results[3].Err != nil {
		t.Fatalf("healthy jobs must not inherit errors: %v, %v", results[0].Err, results[3].Err)
	}
}

func TestDefaultWorkerCount(t *testing.T) {
	if w := (Pool{}).workers(); w < 1 {
		t.Fatalf("default worker count %d", w)
	}
	if w := (Pool{Workers: -3}).workers(); w < 1 {
		t.Fatalf("negative Workers must fall back to NumCPU, got %d", w)
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, errors.New("sink closed")
	}
	f.after--
	return len(p), nil
}

func TestSinkErrorReported(t *testing.T) {
	jobs := spinJobs(4)
	_, err := Pool{Workers: 2}.RunToContext(context.Background(), &failWriter{after: 1}, jobs)
	if err == nil || !strings.Contains(err.Error(), "sink closed") {
		t.Fatalf("sink failure not reported: %v", err)
	}
}

// TestRunToContextReturnsToBaseline: RunToContext starts one goroutine per
// job, and every one of them exits — after a normal run, after a job that
// panics, and after a cancel that lands while jobs are still queued for a
// worker slot. A worker that kept its slot would hang the run; a queued
// job that ignored the cancel would outlive it.
func TestRunToContextReturnsToBaseline(t *testing.T) {
	baseline := runtime.NumGoroutine()
	start := func(ctx context.Context, jobs []Job) <-chan []Result {
		ch := make(chan []Result, 1)
		go func() {
			res, _ := Pool{Workers: 1}.RunToContext(ctx, nil, jobs)
			ch <- res
		}()
		return ch
	}
	await := func(ch <-chan []Result) []Result {
		t.Helper()
		select {
		case res := <-ch:
			return res
		case <-time.After(10 * time.Second):
			t.Fatal("RunToContext did not return")
			return nil
		}
	}

	if err := Errs(await(start(context.Background(), spinJobs(4)))); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)

	ok := Job{ID: "ok", Run: func(io.Writer) error { return nil }}
	res := await(start(context.Background(), []Job{{ID: "panics", Run: func(io.Writer) error { panic("kaboom") }}, ok, ok}))
	if res[0].Err == nil || res[1].Err != nil || res[2].Err != nil {
		t.Fatalf("panic run errors = %v, %v, %v; want only the first", res[0].Err, res[1].Err, res[2].Err)
	}
	waitGoroutines(t, baseline)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var running atomic.Int64
	hold := make(chan struct{})
	held := Job{ID: "held", Run: func(io.Writer) error { running.Add(1); <-hold; return nil }}
	ch := start(ctx, []Job{held, held, held})
	for running.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	// The two queued jobs give up their wait for the slot; only the caller
	// and the running job remain.
	waitGoroutines(t, baseline+2)
	close(hold)
	canceled := 0
	for _, r := range await(ch) {
		if errors.Is(r.Err, context.Canceled) {
			canceled++
		}
	}
	if canceled != 2 || running.Load() != 1 {
		t.Fatalf("%d jobs ran and %d were canceled, want 1 and 2", running.Load(), canceled)
	}
	waitGoroutines(t, baseline)
}

// waitGoroutines polls until at most want goroutines run.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}
