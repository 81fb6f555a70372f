package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nanometer/internal/render"
	"nanometer/internal/repro"
	"nanometer/internal/result"
	"nanometer/internal/store"
)

// TestSingleflightCollapse: K identical concurrent requests run exactly
// one compute; the other K−1 collapse onto the leader's flight without
// acquiring gate weight, and every request still gets 200.
func TestSingleflightCollapse(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	const k = 16
	var computes atomic.Int64
	blocker := make(chan struct{})
	arts := []repro.Artifact{counting("collapse", &computes, 0, blocker)}
	s := New(Config{Artifacts: arts, GateUnits: 100, Timeout: 30 * time.Second})
	h := s.Handler()

	var wg sync.WaitGroup
	codes := make([]int, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := get(t, h, "/api/v1/artifacts/collapse", nil)
			codes[i] = rec.Code
		}(i)
	}
	// One leader computes; the 15 followers register as shared before any
	// result exists.
	waitFor(t, func() bool { return computes.Load() == 1 })
	waitFor(t, func() bool { return s.met.singleflightShared.Value() == k-1 })
	// Only the leader holds gate weight: 16 in-flight requests, 1 unit.
	if got := s.gate.InFlight(); got != 1 {
		t.Errorf("gate in-flight = %d units during a collapsed burst, want 1 (the leader)", got)
	}
	close(blocker)
	wg.Wait()
	for i, c := range codes {
		if c != 200 {
			t.Errorf("request %d got %d", i, c)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("model ran %d times for %d identical requests, want 1", n, k)
	}
}

// TestSingleflightHeavyGateWeight: duplicates of a heavy request
// (mesh-n=255 ≈ 39 units) must not multiply its admission cost — the
// burst holds one leader's weight, not K×39.
func TestSingleflightHeavyGateWeight(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	var computes atomic.Int64
	blocker := make(chan struct{})
	arts := []repro.Artifact{counting("heavy", &computes, 0, blocker)}
	s := New(Config{Artifacts: arts, GateUnits: 1000, Timeout: 30 * time.Second})
	h := s.Handler()

	const k = 4
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get(t, h, "/api/v1/artifacts/heavy?mesh-n=255", nil)
		}()
	}
	waitFor(t, func() bool { return computes.Load() == 1 })
	waitFor(t, func() bool { return s.met.singleflightShared.Value() == k-1 })
	want := weight(255)
	if got := s.gate.InFlight(); got != want {
		t.Errorf("gate in-flight = %d units for %d duplicate heavy requests, want %d (one leader)", got, k, want)
	}
	close(blocker)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("model ran %d times, want 1", n)
	}
}

// TestSingleflightReportCollapse: K identical concurrent reports hold one
// report-weight admission, the other K−1 wait on the leader's record, and
// every request gets the same 200 body, the CLI's bytes.
func TestSingleflightReportCollapse(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	var computes atomic.Int64
	blocker := make(chan struct{})
	arts := []repro.Artifact{counting("ra", &computes, 0, blocker), counting("rb", &computes, 0, blocker)}
	s := New(Config{Artifacts: arts, GateUnits: 100, Timeout: 30 * time.Second})
	defer s.Close()
	h := s.Handler()

	const k = 4
	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, k)
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = get(t, h, "/api/v1/report", nil)
		}(i)
	}
	waitFor(t, func() bool { return computes.Load() >= 1 })
	waitFor(t, func() bool { return s.met.singleflightShared.Value() == k-1 })
	want := int64(len(arts)) * weight(0)
	if got := s.gate.InFlight(); got != want {
		t.Errorf("gate in-flight = %d units for %d identical reports, want %d (one report)", got, k, want)
	}
	close(blocker)
	wg.Wait()
	body := cliReport(t, arts, "text", render.Text{})
	for i, rec := range recs {
		if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), body) {
			t.Errorf("report %d = %d, or its body differs from the CLI's", i, rec.Code)
		}
	}
	if n := computes.Load(); n != int64(len(arts)) {
		t.Fatalf("%d computes for %d identical reports of %d artifacts, want %d", n, k, len(arts), len(arts))
	}
}

// TestSingleflightReportLeaderGone: a report leader that disconnected
// mid-compute is answered nothing and recorded as 499; its follower
// answers 503 with Retry-After (the leader's canceled report launched no
// further artifacts), and the follower's retry leads afresh and answers
// 200.
func TestSingleflightReportLeaderGone(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	var computes atomic.Int64
	unblock := make(chan struct{})
	arts := []repro.Artifact{counting("la", &computes, 0, unblock), counting("lb", &computes, 0, unblock)}
	// One report worker: one artifact runs, the other waits for a slot
	// and is skipped once the leader's context is canceled.
	s := New(Config{Artifacts: arts, Jobs: 1, Timeout: 30 * time.Second})
	defer s.Close()
	h := s.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	leader := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/report", nil).WithContext(ctx))
		leader <- rec
	}()
	waitFor(t, func() bool { return computes.Load() == 1 })
	follower := make(chan *httptest.ResponseRecorder, 1)
	go func() { follower <- get(t, h, "/api/v1/report", nil) }()
	waitFor(t, func() bool { return s.met.singleflightShared.Value() == 1 })
	cancel()
	if rec := <-leader; rec.Body.Len() != 0 || s.met.requests.With("499").Value() != 1 || s.met.timeouts.Value() != 0 {
		t.Errorf("disconnected leader got %q, %v requests recorded 499 and %v timeouts; want nothing, 1 and 0",
			rec.Body.String(), s.met.requests.With("499").Value(), s.met.timeouts.Value())
	}
	close(unblock)
	rec := <-follower
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("follower of a gone leader = %d (Retry-After %q), want 503 with Retry-After: %s",
			rec.Code, rec.Header().Get("Retry-After"), rec.Body.String())
	}
	retry := get(t, h, "/api/v1/report", nil)
	if retry.Code != 200 || !bytes.Equal(retry.Body.Bytes(), cliReport(t, arts, "text", render.Text{})) {
		t.Fatalf("retry = %d, or its body differs from the CLI's: %s", retry.Code, retry.Body.String())
	}
}

// TestSingleflightErrorPropagates: a failing compute answers 500 to the
// leader and every collapsed follower alike — no follower hangs waiting
// for a result that will never come.
func TestSingleflightErrorPropagates(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	arts := []repro.Artifact{
		{ID: "failing", Title: "failing", Compute: func(repro.Options) (*result.Result, error) {
			return nil, errors.New("solver exploded")
		}},
	}
	h := New(Config{Artifacts: arts, GateUnits: 100, Timeout: 30 * time.Second}).Handler()
	const k = 5
	var wg sync.WaitGroup
	codes := make([]int, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = get(t, h, "/api/v1/artifacts/failing", nil).Code
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != 500 {
			t.Errorf("request %d got %d, want 500", i, c)
		}
	}
}

// TestErrorResponsesCarryNoValidators: 500 and 504 responses must not ship
// ETag or Cache-Control — a client revalidating a cached error body into a
// 304 would pin the failure forever (the bug this PR fixes).
func TestErrorResponsesCarryNoValidators(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	var computes atomic.Int64
	arts := []repro.Artifact{
		{ID: "alwaysfails", Title: "always fails", Compute: func(repro.Options) (*result.Result, error) {
			return nil, errors.New("boom")
		}},
		counting("tooSlow", &computes, 200*time.Millisecond, nil),
	}
	h := New(Config{Artifacts: arts, Timeout: 40 * time.Millisecond}).Handler()
	for _, tc := range []struct {
		target string
		want   int
	}{
		{"/api/v1/artifacts/alwaysfails", 500},
		{"/api/v1/artifacts/tooSlow", 504},
		{"/api/v1/artifacts/nope", 404},
		{"/api/v1/artifacts/alwaysfails?format=xml", 400},
	} {
		rec := get(t, h, tc.target, nil)
		if rec.Code != tc.want {
			t.Fatalf("%s = %d, want %d", tc.target, rec.Code, tc.want)
		}
		if et := rec.Header().Get("ETag"); et != "" {
			t.Errorf("%s (%d) carries ETag %q", tc.target, rec.Code, et)
		}
		if cc := rec.Header().Get("Cache-Control"); cc != "" {
			t.Errorf("%s (%d) carries Cache-Control %q", tc.target, rec.Code, cc)
		}
	}
}

// TestRetryAfterTimeoutHitsStore: a request that 504s still completes its
// compute into the shared store, so a cold replica (simulated by flushing
// the in-memory compute cache and kept bodies, as a restart would) serves
// the retry from the store without running a solver.
func TestRetryAfterTimeoutHitsStore(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	defer repro.SetResultStore(nil)
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int64
	arts := []repro.Artifact{counting("slowstore", &computes, 150*time.Millisecond, nil)}
	s := New(Config{Artifacts: arts, Store: st, Timeout: 30 * time.Millisecond})
	h := s.Handler()

	if rec := get(t, h, "/api/v1/artifacts/slowstore", nil); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("slow compute = %d, want 504", rec.Code)
	}
	// The abandoned compute lands in memory AND on disk.
	waitFor(t, func() bool { return st.Counters().Puts == 1 })
	// Restart: memory gone, store persists.
	repro.ResetCache()
	s.bodies.reset()
	rec := get(t, h, "/api/v1/artifacts/slowstore", nil)
	if rec.Code != 200 {
		t.Fatalf("retry on warm store = %d, want 200", rec.Code)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("model ran %d times, want 1 (retry must hit the store)", n)
	}
	if st.Counters().Hits == 0 {
		t.Fatal("retry did not read the store")
	}
}
