package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nanometer/internal/repro"
	"nanometer/internal/result"
)

// TestFaultPathsReturnToBaseline drives each request fault path once and
// then requires the daemon to be back where it started: no gate units held
// or queued, no singleflight entry left behind, no leaked goroutine, and a
// retry of the same request answering 200 (the fault poisoned nothing).
// The retry must miss the body memo — no failed or abandoned response was
// memoized — and a third identical request must hit it without taking gate
// units or leaving a goroutine behind.
func TestFaultPathsReturnToBaseline(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		units   int64
		// setup builds the registry; the returned fault drives the failing
		// request against s (and srv, a loopback server over s) and checks
		// its status. retry is the request that must then answer 200.
		setup func(t *testing.T) ([]repro.Artifact, func(t *testing.T, s *Server, srv *httptest.Server))
		retry string
	}{
		{
			name:    "leader-timeout-504",
			timeout: 30 * time.Millisecond,
			setup: func(t *testing.T) ([]repro.Artifact, func(*testing.T, *Server, *httptest.Server)) {
				var n atomic.Int64
				arts := []repro.Artifact{counting("slow", &n, 150*time.Millisecond, nil)}
				return arts, func(t *testing.T, s *Server, _ *httptest.Server) {
					if rec := get(t, s.Handler(), "/api/v1/artifacts/slow", nil); rec.Code != http.StatusGatewayTimeout {
						t.Fatalf("slow compute = %d, want 504", rec.Code)
					}
				}
			},
			retry: "/api/v1/artifacts/slow",
		},
		{
			name:  "gate-waiter-canceled-503",
			units: 1,
			setup: func(t *testing.T) ([]repro.Artifact, func(*testing.T, *Server, *httptest.Server)) {
				var n, m atomic.Int64
				hold := make(chan struct{})
				arts := []repro.Artifact{counting("hold", &n, 0, hold), counting("victim", &m, 0, nil)}
				return arts, func(t *testing.T, s *Server, _ *httptest.Server) {
					h := s.Handler()
					held := make(chan int, 1)
					go func() { held <- get(t, h, "/api/v1/artifacts/hold", nil).Code }()
					waitFor(t, func() bool { return n.Load() == 1 })
					ctx, cancel := context.WithCancel(context.Background())
					victim := make(chan int, 1)
					go func() {
						req := httptest.NewRequest("GET", "/api/v1/artifacts/victim", nil).WithContext(ctx)
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, req)
						victim <- rec.Code
					}()
					waitFor(t, func() bool { return s.gate.Waiting() == 1 })
					cancel()
					if code := <-victim; code != http.StatusServiceUnavailable {
						t.Errorf("canceled gate waiter = %d, want 503", code)
					}
					close(hold)
					if code := <-held; code != 200 {
						t.Errorf("gate holder = %d, want 200", code)
					}
				}
			},
			retry: "/api/v1/artifacts/victim",
		},
		{
			name: "compute-error-500",
			setup: func(t *testing.T) ([]repro.Artifact, func(*testing.T, *Server, *httptest.Server)) {
				arts := []repro.Artifact{flakyArtifact()}
				return arts, func(t *testing.T, s *Server, _ *httptest.Server) {
					if rec := get(t, s.Handler(), "/api/v1/artifacts/flaky", nil); rec.Code != http.StatusInternalServerError {
						t.Fatalf("failing compute = %d, want 500", rec.Code)
					}
				}
			},
			retry: "/api/v1/artifacts/flaky",
		},
		{
			name: "report-compute-error-500",
			setup: func(t *testing.T) ([]repro.Artifact, func(*testing.T, *Server, *httptest.Server)) {
				arts := []repro.Artifact{flakyArtifact()}
				return arts, func(t *testing.T, s *Server, _ *httptest.Server) {
					rec := get(t, s.Handler(), "/api/v1/report", nil)
					if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "transient solver failure") {
						t.Fatalf("report with a failing compute = %d (%s), want 500 naming the error", rec.Code, rec.Body.String())
					}
				}
			},
			retry: "/api/v1/report",
		},
		{
			name: "client-disconnect-mid-report",
			setup: func(t *testing.T) ([]repro.Artifact, func(*testing.T, *Server, *httptest.Server)) {
				var n atomic.Int64
				unblock := make(chan struct{})
				arts := []repro.Artifact{counting("long", &n, 0, unblock)}
				return arts, func(t *testing.T, s *Server, srv *httptest.Server) {
					client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
					ctx, cancel := context.WithCancel(context.Background())
					req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/api/v1/report", nil)
					if err != nil {
						t.Fatal(err)
					}
					done := make(chan error, 1)
					go func() {
						resp, err := client.Do(req)
						if err == nil {
							resp.Body.Close()
						}
						done <- err
					}()
					// Disconnect while the report's compute is running, and
					// let it finish only once the handler has given up.
					waitFor(t, func() bool { return n.Load() == 1 })
					cancel()
					if err := <-done; err == nil {
						t.Error("disconnected client got a response")
					}
					waitFor(t, func() bool { return s.met.timeouts.Value() == 1 })
					close(unblock)
				}
			},
			retry: "/api/v1/report",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			repro.ResetCache()
			defer repro.ResetCache()
			timeout := tc.timeout
			if timeout == 0 {
				timeout = 30 * time.Second
			}
			arts, fault := tc.setup(t)
			s := New(Config{Artifacts: arts, GateUnits: tc.units, Timeout: timeout})
			defer s.Close()
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			baseline := runtime.NumGoroutine()

			fault(t, s, srv)

			deadline := time.Now().Add(5 * time.Second)
			for {
				s.flights.mu.Lock()
				flights := len(s.flights.m)
				s.flights.mu.Unlock()
				inFlight, waiting, goroutines := s.gate.InFlight(), s.gate.Waiting(), runtime.NumGoroutine()
				if inFlight == 0 && waiting == 0 && flights == 0 && goroutines <= baseline {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("not back to baseline: gate in-flight=%d waiting=%d, flights=%d, goroutines=%d (baseline %d)",
						inFlight, waiting, flights, goroutines, baseline)
				}
				time.Sleep(time.Millisecond)
			}
			hits := s.met.bodyCacheHits.Value()
			retry := get(t, s.Handler(), tc.retry, nil)
			if retry.Code != 200 {
				t.Fatalf("retry %s = %d, want 200 (body: %s)", tc.retry, retry.Code, retry.Body.String())
			}
			if s.met.bodyCacheHits.Value() != hits {
				t.Fatalf("retry %s was a body memo hit: the faulted response was memoized", tc.retry)
			}
			// The retry's compute goroutine releases its gate units just
			// after it hands over the result; wait for that, so the memo
			// hit below is measured against an idle gate.
			waitFor(t, func() bool { return s.gate.InFlight() == 0 })
			goroutines := runtime.NumGoroutine()
			third := get(t, s.Handler(), tc.retry, nil)
			if third.Code != 200 || !bytes.Equal(third.Body.Bytes(), retry.Body.Bytes()) {
				t.Fatalf("third %s = %d, or its body differs from the retry's", tc.retry, third.Code)
			}
			if s.met.bodyCacheHits.Value() != hits+1 {
				t.Errorf("third %s was not a body memo hit", tc.retry)
			}
			if got := s.gate.InFlight(); got != 0 {
				t.Errorf("gate in-flight = %d after a memo hit, want 0", got)
			}
			if got := runtime.NumGoroutine(); got > goroutines {
				t.Errorf("goroutines %d → %d across a memo hit", goroutines, got)
			}
		})
	}
}

// flakyArtifact fails its first compute and succeeds from then on.
func flakyArtifact() repro.Artifact {
	var calls atomic.Int64
	return repro.Artifact{ID: "flaky", Title: "flaky", Compute: func(repro.Options) (*result.Result, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("transient solver failure")
		}
		r := &result.Result{}
		r.AddTable(&result.Table{Title: "flaky", Headers: []string{"h"}, Rows: [][]string{{"v"}}})
		return r, nil
	}}
}
