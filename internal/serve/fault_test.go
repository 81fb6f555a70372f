package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nanometer/internal/device"
	"nanometer/internal/render"
	"nanometer/internal/repro"
	"nanometer/internal/result"
	"nanometer/internal/runner"
	"nanometer/internal/store"
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
		// brokenStore runs the case with a result store whose directory
		// is removed after Open, so every write to it fails.
		brokenStore bool
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
					if got := s.met.timeouts.Value(); got != 1 {
						t.Errorf("timeouts = %v after a deadline, want 1", got)
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
			name: "compute-panic-500",
			setup: func(t *testing.T) ([]repro.Artifact, func(*testing.T, *Server, *httptest.Server)) {
				arts := []repro.Artifact{panickyArtifact()}
				return arts, func(t *testing.T, s *Server, _ *httptest.Server) {
					rec := get(t, s.Handler(), "/api/v1/artifacts/boom", nil)
					if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "computing boom: panic: boom") {
						t.Fatalf("panicking compute = %d (%s), want 500 naming the panic", rec.Code, rec.Body.String())
					}
				}
			},
			retry: "/api/v1/artifacts/boom",
		},
		{
			// The panic happens on a goroutine the compute forked, which
			// neither the compute cache nor the leader's recover can see:
			// runner.Parallel must turn it into the compute's error.
			name: "forked-pass-panic-500",
			setup: func(t *testing.T) ([]repro.Artifact, func(*testing.T, *Server, *httptest.Server)) {
				arts := []repro.Artifact{forkPanickyArtifact()}
				return arts, func(t *testing.T, s *Server, _ *httptest.Server) {
					rec := get(t, s.Handler(), "/api/v1/artifacts/forkboom", nil)
					if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "computing forkboom: panic: boom") {
						t.Fatalf("panicking forked pass = %d (%s), want 500 naming the panic", rec.Code, rec.Body.String())
					}
				}
			},
			retry: "/api/v1/artifacts/forkboom",
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
					// A hang-up is recorded as 499, not as a timeout.
					waitFor(t, func() bool { return s.met.requests.With("499").Value() == 1 })
					if got := s.met.timeouts.Value(); got != 0 {
						t.Errorf("timeouts = %v after a disconnect, want 0", got)
					}
					close(unblock)
				}
			},
			retry:   "/api/v1/report",
			wantHit: true,
		},
		{
			name: "client-disconnect-during-store-put",
			setup: func(t *testing.T) ([]repro.Artifact, func(*testing.T, *Server, *httptest.Server)) {
				var n atomic.Int64
				st := &blockingPutStore{putting: make(chan struct{}), release: make(chan struct{})}
				repro.SetResultStore(st)
				t.Cleanup(func() { repro.SetResultStore(nil) })
				arts := []repro.Artifact{counting("stored", &n, 0, nil)}
				return arts, func(t *testing.T, s *Server, srv *httptest.Server) {
					client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
					ctx, cancel := context.WithCancel(context.Background())
					req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/api/v1/artifacts/stored", nil)
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
					// Disconnect while the leader's result is being written to
					// the store, and let the write land only once the handler
					// has given up.
					<-st.putting
					cancel()
					if err := <-done; err == nil {
						t.Error("disconnected client got a response")
					}
					waitFor(t, func() bool { return s.met.requests.With("499").Value() == 1 })
					close(st.release)
					// The compute cache holds the result, not an error: a
					// direct call waits out the put and does not recompute.
					if _, err := arts[0].ComputeCached(repro.Options{}); err != nil || n.Load() != 1 {
						t.Errorf("after the put: ComputeCached error %v, %d computes; want a cached result of 1", err, n.Load())
					}
				}
			},
			retry:   "/api/v1/artifacts/stored",
			wantHit: true,
		},
		{
			name:        "store-write-failure",
			brokenStore: true,
			setup: func(t *testing.T) ([]repro.Artifact, func(*testing.T, *Server, *httptest.Server)) {
				var n atomic.Int64
				arts := []repro.Artifact{counting("unstored", &n, 0, nil)}
				return arts, func(t *testing.T, s *Server, _ *httptest.Server) {
					// Both counters are process-wide: compare against a scrape
					// taken just before the request.
					h := s.Handler()
					counters := func() (puts, errs float64) {
						p, _ := strconv.ParseFloat(metricValue(t, h, "nanoreprod_store_puts_total"), 64)
						e, _ := strconv.ParseFloat(metricValue(t, h, "nanoreprod_store_put_errors_total"), 64)
						return p, e
					}
					puts, errs := counters()
					if rec := get(t, h, "/api/v1/artifacts/unstored", nil); rec.Code != 200 {
						t.Fatalf("artifact over a failing store = %d, want 200", rec.Code)
					}
					if p, e := counters(); p != puts || e != errs+1 {
						t.Errorf("store puts %v → %v and put errors %v → %v, want puts unchanged and errors +1", puts, p, errs, e)
					}
				}
			},
			retry:   "/api/v1/artifacts/unstored",
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
			var st *store.Store
			if tc.brokenStore {
				dir := filepath.Join(t.TempDir(), "store")
				var err error
				if st, err = store.Open(store.Config{Dir: dir}); err != nil {
					t.Fatal(err)
				}
				// Removal, not chmod: root ignores permission bits.
				if err := os.RemoveAll(dir); err != nil {
					t.Fatal(err)
				}
				defer repro.SetResultStore(nil)
			}
			s := New(Config{Artifacts: arts, GateUnits: tc.units, Timeout: timeout, Store: st})
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
	// The first grid corner (70 nm at 0.8 × its 0.9 V supply) answers at
	// once; the others block, so the stream stops after exactly one line.
	arts := []repro.Artifact{{ID: "sd", Title: "sd", Compute: func(lab *device.Lab, _ int) (*result.Result, error) {
		if lab.MustNode(70).Vdd > 0.8*0.9+1e-9 {
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
	// The handler notices the hang-up and returns (its request is counted)
	// without counting a timeout; the variants still computing finish
	// afterwards and release their gate units.
	waitFor(t, func() bool { return s.met.requests.With("200").Value() == 1 })
	if got := s.met.timeouts.Value(); got != 0 {
		t.Errorf("timeouts = %v after a disconnect, want 0", got)
	}
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

// TestScenariosCancelStopsQueuedWork: a client that hangs up on a
// scenarios request takes its queued work with it. Variants waiting at a
// full gate leave the queue at once and never compute, and a variant whose
// pool is busy launches none of its remaining artifacts.
func TestScenariosCancelStopsQueuedWork(t *testing.T) {
	post := func(s *Server, ctx context.Context, body string) <-chan struct{} {
		done := make(chan struct{})
		go func() {
			req := httptest.NewRequest("POST", "/api/v1/scenarios", strings.NewReader(body)).WithContext(ctx)
			s.Handler().ServeHTTP(httptest.NewRecorder(), req)
			close(done)
		}()
		return done
	}
	t.Run("gate-wait", func(t *testing.T) {
		repro.ResetCache()
		defer repro.ResetCache()
		var n atomic.Int64
		s := New(Config{Artifacts: []repro.Artifact{counting("gw", &n, 0, nil)}, GateUnits: 1, Timeout: 5 * time.Second})
		defer s.Close()
		baseline := runtime.NumGoroutine()
		release, err := s.gate.Acquire(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := post(s, ctx, `{"name":"gw","sweep":{"param":"vdd","steps":3,"span_pct":20,"nodes":[70]}}`)
		waitFor(t, func() bool { return s.gate.Waiting() == 3 })
		cancel()
		<-done
		// The gate is still full: only the cancel can empty its queue.
		waitFor(t, func() bool { return s.gate.Waiting() == 0 })
		release()
		waitBaseline(t, s, baseline)
		if got := n.Load(); got != 0 {
			t.Errorf("%d variants computed after their client hung up at the gate, want 0", got)
		}
		if got := s.met.rejected.Value(); got != 3 {
			t.Errorf("gate rejections = %v, want 3", got)
		}
	})
	t.Run("pool", func(t *testing.T) {
		repro.ResetCache()
		defer repro.ResetCache()
		// One worker: whichever artifact starts first blocks the other.
		var n atomic.Int64
		unblock := make(chan struct{})
		arts := []repro.Artifact{counting("p1", &n, 0, unblock), counting("p2", &n, 0, unblock)}
		s := New(Config{Artifacts: arts, Jobs: 1, Timeout: 5 * time.Second})
		defer s.Close()
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		done := post(s, ctx, `{"name":"p"}`)
		waitFor(t, func() bool { return n.Load() == 1 })
		cancel()
		<-done
		close(unblock)
		waitBaseline(t, s, baseline)
		if got := n.Load(); got != 1 {
			t.Errorf("%d artifacts computed, want 1: the pool launched work after the client hung up", got)
		}
	})
}

// waitBaseline waits until s holds no gate units, has no gate waiter and
// no body record in flight, and runs no more goroutines than baseline.
func waitBaseline(t *testing.T, s *Server, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, records := s.bodies.Len()
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

// blockingPutStore is a result store that misses every Get and holds its
// first Put until release closes; putting closes when that Put begins.
type blockingPutStore struct {
	putting, release chan struct{}
	once             sync.Once
}

func (b *blockingPutStore) Get(string, string) (*result.Result, bool) { return nil, false }

func (b *blockingPutStore) Put(string, string, *result.Result) bool {
	b.once.Do(func() { close(b.putting) })
	<-b.release
	return true
}

// flakyArtifact fails its first compute and succeeds from then on.
func flakyArtifact() repro.Artifact {
	var calls atomic.Int64
	return repro.Artifact{ID: "flaky", Title: "flaky", Compute: func(*device.Lab, int) (*result.Result, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("transient solver failure")
		}
		r := &result.Result{}
		r.AddTable(&result.Table{Title: "flaky", Headers: []string{"h"}, Rows: [][]string{{"v"}}})
		return r, nil
	}}
}

// panickyArtifact panics in its first compute and succeeds from then on.
func panickyArtifact() repro.Artifact {
	a := flakyArtifact()
	a.ID, a.Title = "boom", "boom"
	compute := a.Compute
	a.Compute = func(lab *device.Lab, meshN int) (*result.Result, error) {
		res, err := compute(lab, meshN)
		if err != nil {
			panic("boom")
		}
		return res, nil
	}
	return a
}

// forkPanickyArtifact runs panickyArtifact's compute as one of two forked
// passes, so its first compute panics off the compute's own goroutine; the
// sibling pass waits for the panic and finishes after it.
func forkPanickyArtifact() repro.Artifact {
	a := panickyArtifact()
	a.ID, a.Title = "forkboom", "forkboom"
	compute := a.Compute
	a.Compute = func(lab *device.Lab, meshN int) (*result.Result, error) {
		var res *result.Result
		done := make(chan struct{})
		err := runner.Parallel(func() (err error) {
			defer close(done)
			res, err = compute(lab, meshN)
			return err
		}, func() error {
			<-done
			return nil
		})
		return res, err
	}
	return a
}
