package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nanometer/internal/render"
	"nanometer/internal/repro"
	"nanometer/internal/result"
)

// TestFaultPathsReturnToBaseline drives each request fault path once and
// then requires the daemon to be back where it started: no gate units held
// or queued, no body record left in flight, no leaked goroutine, and a
// retry of the same request answering 200 (the fault poisoned nothing).
// A failed response is never kept, so its retry misses the body memo. An
// abandoned leader whose work still succeeded keeps its body, so that
// retry hits, with the bytes of a fresh encode. A third identical request
// must hit without taking gate units or leaving a goroutine behind.
func TestFaultPathsReturnToBaseline(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		units   int64
		// setup builds the registry; the returned fault drives the failing
		// request against s (and srv, a loopback server over s) and checks
		// its status. retry is the request that must then answer 200.
		setup   func(t *testing.T) ([]repro.Artifact, func(t *testing.T, s *Server, srv *httptest.Server))
		retry   string
		wantHit bool // the abandoned work succeeded, so the retry hits
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
			retry:   "/api/v1/artifacts/slow",
			wantHit: true,
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
			retry:   "/api/v1/report",
			wantHit: true,
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

			waitBaseline(t, s, baseline)
			hits := s.met.bodyCacheHits.Value()
			retry := get(t, s.Handler(), tc.retry, nil)
			if retry.Code != 200 {
				t.Fatalf("retry %s = %d, want 200 (body: %s)", tc.retry, retry.Code, retry.Body.String())
			}
			if hit := s.met.bodyCacheHits.Value() != hits; hit != tc.wantHit {
				t.Fatalf("retry %s body memo hit = %v, want %v", tc.retry, hit, tc.wantHit)
			}
			fresh := arts
			if id, ok := strings.CutPrefix(tc.retry, "/api/v1/artifacts/"); ok {
				fresh = []repro.Artifact{s.byID[id]}
			}
			if want := cliReport(t, fresh, "text", render.Text{}); !bytes.Equal(retry.Body.Bytes(), want) {
				t.Fatalf("retry %s body differs from a fresh encode", tc.retry)
			}
			if tc.wantHit {
				hits++
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

// TestScenariosDisconnectReturnsToBaseline: a client that hangs up after
// the first NDJSON line of a 3-variant sweep, while the other variants
// still compute, leaves the daemon at baseline once they finish, and the
// identical retry streams one clean line per variant.
func TestScenariosDisconnectReturnsToBaseline(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	var blocked atomic.Int64
	unblock := make(chan struct{})
	// The first grid corner answers at once; the others block, so the
	// stream stops after exactly one line.
	arts := []repro.Artifact{{ID: "sd", Title: "sd", Compute: func(o repro.Options) (*result.Result, error) {
		if !strings.HasSuffix(o.Scenario.Name, "vdd=0.800") {
			blocked.Add(1)
			<-unblock
		}
		r := &result.Result{}
		r.AddTable(&result.Table{Title: "sd", Headers: []string{"h"}, Rows: [][]string{{"v"}}})
		return r, nil
	}}}
	s := New(Config{Artifacts: arts, Timeout: 5 * time.Second})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	baseline := runtime.NumGoroutine()

	const sweep = `{"name":"dc","sweep":{"param":"vdd","steps":3,"span_pct":20,"nodes":[70]}}`
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", srv.URL+"/api/v1/scenarios", strings.NewReader(sweep))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var first variantLine
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil || first.Scenario != "dc/vdd=0.800" || first.Error != "" {
		t.Fatalf("first NDJSON line = %+v, %v; want the first grid corner, computed", first, err)
	}
	if s.met.timeouts.Value() != 0 {
		t.Fatal("the first line arrived only after the request deadline: the stream was not flushed line by line")
	}
	waitFor(t, func() bool { return blocked.Load() == 2 })
	cancel()
	resp.Body.Close()
	// The handler notices the hang-up and stops collecting; the variants
	// still computing finish afterwards and release their gate units.
	waitFor(t, func() bool { return s.met.timeouts.Value() == 1 })
	close(unblock)
	waitBaseline(t, s, baseline)

	rec := postScenario(t, s, "/api/v1/scenarios", sweep)
	if rec.Code != 200 {
		t.Fatalf("retry = %d (body: %s)", rec.Code, rec.Body.String())
	}
	lines := decodeLines(t, rec.Body)
	if len(lines) != 3 {
		t.Fatalf("retry streamed %d lines, want 3", len(lines))
	}
	for _, line := range lines {
		if line.Error != "" || len(line.Artifacts) != 1 {
			t.Errorf("retry line %s: %d artifacts, error %q", line.Scenario, len(line.Artifacts), line.Error)
		}
	}
}

// waitBaseline waits until s holds no gate units, has no gate waiter and
// no body record in flight, and runs no more goroutines than baseline.
func waitBaseline(t *testing.T, s *Server, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.bodies.mu.Lock()
		records := len(s.bodies.m) - s.bodies.kept
		s.bodies.mu.Unlock()
		inFlight, waiting, goroutines := s.gate.InFlight(), s.gate.Waiting(), runtime.NumGoroutine()
		if inFlight == 0 && waiting == 0 && records == 0 && goroutines <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("not back to baseline: gate in-flight=%d waiting=%d, records in flight=%d, goroutines=%d (baseline %d)",
				inFlight, waiting, records, goroutines, baseline)
		}
		time.Sleep(time.Millisecond)
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
