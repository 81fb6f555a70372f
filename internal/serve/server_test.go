package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nanometer/internal/render"
	"nanometer/internal/repro"
	"nanometer/internal/result"
	"nanometer/internal/runner"
)

func get(t *testing.T, h http.Handler, target string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", target, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestHandlerStatuses is the table-driven boundary check: unknown artifact,
// bad format, bad mesh-n, wrong method, misapplied encode flags.
func TestHandlerStatuses(t *testing.T) {
	h := New(Config{}).Handler()
	for _, tc := range []struct {
		method, target string
		want           int
	}{
		{"GET", "/healthz", 200},
		{"GET", "/api/v1/artifacts", 200},
		{"GET", "/api/v1/artifacts/t2", 200},
		{"GET", "/api/v1/artifacts/t2?format=json", 200},
		{"GET", "/api/v1/artifacts/t2?format=csv", 200},
		{"GET", "/api/v1/artifacts/t2?format=text&verbose=1&plot=1", 200},
		{"GET", "/api/v1/artifacts/zz", 404},
		{"GET", "/api/v1/artifacts/T2", 404}, // ids are exact, the index is the contract
		{"GET", "/api/v1/artifacts/t2?format=xml", 400},
		{"GET", "/api/v1/artifacts/t2?mesh-n=-5", 400},
		{"GET", "/api/v1/artifacts/t2?mesh-n=1", 400},
		{"GET", "/api/v1/artifacts/t2?mesh-n=2", 400},
		{"GET", "/api/v1/artifacts/t2?mesh-n=1048576", 400},
		{"GET", "/api/v1/artifacts/t2?mesh-n=abc", 400},
		{"GET", "/api/v1/artifacts/t2?format=json&verbose=1", 400},
		{"GET", "/api/v1/report?format=xml", 400},
		{"POST", "/api/v1/artifacts/t2", 405},
		{"GET", "/api/v1/cache/flush", 405},
		{"GET", "/metrics", 200},
		{"GET", "/nope", 404},
	} {
		req := httptest.NewRequest(tc.method, tc.target, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s %s = %d, want %d (body: %s)", tc.method, tc.target, rec.Code, tc.want, rec.Body.String())
		}
	}
}

// TestETagRoundTrip: a 200 carries a strong ETag; replaying it in
// If-None-Match yields 304 with no body and no recompute; different
// options or formats change the ETag.
func TestETagRoundTrip(t *testing.T) {
	h := New(Config{}).Handler()
	first := get(t, h, "/api/v1/artifacts/t2", nil)
	if first.Code != 200 {
		t.Fatalf("GET = %d", first.Code)
	}
	etag := first.Header().Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("missing/weak ETag %q", etag)
	}
	second := get(t, h, "/api/v1/artifacts/t2", map[string]string{"If-None-Match": etag})
	if second.Code != 304 {
		t.Fatalf("conditional GET = %d, want 304", second.Code)
	}
	if second.Body.Len() != 0 {
		t.Fatalf("304 must have no body, got %d bytes", second.Body.Len())
	}
	if got := second.Header().Get("ETag"); got != etag {
		t.Fatalf("304 ETag %q != %q", got, etag)
	}
	// A multi-candidate header matches, and so does the weak form of the
	// tag (If-None-Match compares weakly), alone or inside a list.
	for _, inm := range []string{`"zzz", ` + etag, "W/" + etag, `"zzz", W/` + etag + `, "yyy"`} {
		if rec := get(t, h, "/api/v1/artifacts/t2", map[string]string{"If-None-Match": inm}); rec.Code != 304 {
			t.Fatalf("If-None-Match %s = %d, want 304", inm, rec.Code)
		}
	}
	// Different representation or compute options ⇒ different ETag ⇒ 200.
	for _, target := range []string{
		"/api/v1/artifacts/t2?format=csv",
		"/api/v1/artifacts/t2?mesh-n=43",
		"/api/v1/artifacts/t2?verbose=1",
	} {
		rec := get(t, h, target, map[string]string{"If-None-Match": etag})
		if rec.Code != 200 {
			t.Errorf("%s with stale ETag = %d, want 200", target, rec.Code)
		}
		if rec.Header().Get("ETag") == etag {
			t.Errorf("%s reused the ETag of the default representation", target)
		}
	}
}

// TestCacheHitOnRepeat: the second GET of one artifact is served from the
// compute cache — the model stack runs once (the acceptance criterion the
// CI smoke also checks via /metrics).
func TestCacheHitOnRepeat(t *testing.T) {
	repro.ResetCache()
	var computes atomic.Int64
	arts := []repro.Artifact{counting("hit1", &computes, 0, nil)}
	h := New(Config{Artifacts: arts}).Handler()
	for i := 0; i < 3; i++ {
		if rec := get(t, h, "/api/v1/artifacts/hit1", nil); rec.Code != 200 {
			t.Fatalf("GET #%d = %d", i, rec.Code)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("3 requests ran the model stack %d times, want 1", n)
	}
	repro.ResetCache()
}

// cliReport renders the artifacts through the CLI's report path: compute
// on a one-worker pool, then encode in format with the text settings txt.
func cliReport(t *testing.T, arts []repro.Artifact, format string, txt render.Text) []byte {
	t.Helper()
	enc, err := render.NewEncoding(format, txt)
	if err != nil {
		t.Fatal(err)
	}
	results, err := repro.ComputeAllCtx(context.Background(), runner.Pool{Workers: 1}, arts, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := enc.EncodeReport(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cliRepr is one HTTP representation and the CLI options that render the
// same bytes.
type cliRepr struct {
	target string
	arts   []repro.Artifact
	format string
	txt    render.Text
}

// checkMatchesCLI requests each representation twice and checks that both
// bodies equal the CLI's bytes, that the second answer comes from the body
// memo with the same ETag, and that reports carry no ETag while artifacts
// always do.
func checkMatchesCLI(t *testing.T, s *Server, reprs []cliRepr) {
	t.Helper()
	h := s.Handler()
	for _, r := range reprs {
		want := cliReport(t, r.arts, r.format, r.txt)
		var etags [2]string
		for i := range etags {
			hits := s.met.bodyCacheHits.Value()
			rec := get(t, h, r.target, nil)
			if rec.Code != 200 {
				t.Fatalf("%s #%d: HTTP %d", r.target, i+1, rec.Code)
			}
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("%s #%d: HTTP body differs from CLI bytes (%d vs %d bytes)",
					r.target, i+1, rec.Body.Len(), len(want))
			}
			if got, wantHit := s.met.bodyCacheHits.Value()-hits, float64(i); got != wantHit {
				t.Errorf("%s #%d: body memo hits moved by %v, want %v", r.target, i+1, got, wantHit)
			}
			etags[i] = rec.Header().Get("ETag")
		}
		if etags[0] != etags[1] {
			t.Errorf("%s: ETag %q on the repeat, %q first", r.target, etags[1], etags[0])
		}
		if isReport := strings.HasPrefix(r.target, "/api/v1/report"); isReport != (etags[0] == "") {
			t.Errorf("%s: ETag %q (reports carry none, artifacts always do)", r.target, etags[0])
		}
	}
}

// TestServerMatchesCLI: for every artifact and every format, the HTTP body
// is byte-identical to what cmd/nanorepro emits for the same options (both
// funnel through repro.ComputeCached and internal/render, and this test
// pins that they stay funneled). Each representation is requested twice:
// the second answer comes from the body memo.
func TestServerMatchesCLI(t *testing.T) {
	s := New(Config{})
	var reprs []cliRepr
	for _, a := range repro.Artifacts() {
		for _, format := range []string{"text", "json", "csv"} {
			reprs = append(reprs, cliRepr{"/api/v1/artifacts/" + a.ID + "?format=" + format, []repro.Artifact{a}, format, render.Text{}})
		}
	}
	t2 := []repro.Artifact{s.byID["t2"]}
	reprs = append(reprs,
		cliRepr{"/api/v1/artifacts/t2?verbose=1", t2, "text", render.Text{Verbose: true}},
		cliRepr{"/api/v1/artifacts/t2?plot=1", t2, "text", render.Text{Plot: true}})
	checkMatchesCLI(t, s, reprs)
}

// TestReportMatchesCLI: the full-report endpoint returns the CLI's exact
// report bytes in every format, and a repeat is a body-memo hit.
func TestReportMatchesCLI(t *testing.T) {
	var reprs []cliRepr
	for _, format := range []string{"text", "json", "csv"} {
		reprs = append(reprs, cliRepr{"/api/v1/report?format=" + format, repro.Artifacts(), format, render.Text{}})
	}
	checkMatchesCLI(t, New(Config{}), reprs)
}

// counting builds a fake artifact whose compute bumps n, sleeps, and
// (optionally) blocks on gateCh — the instrument for concurrency tests.
func counting(id string, n *atomic.Int64, sleep time.Duration, gateCh chan struct{}) repro.Artifact {
	return repro.Artifact{ID: id, Title: "fake " + id, Compute: func(repro.Options) (*result.Result, error) {
		n.Add(1)
		if gateCh != nil {
			<-gateCh
		}
		time.Sleep(sleep)
		r := &result.Result{}
		r.AddTable(&result.Table{Title: id, Headers: []string{"h"}, Rows: [][]string{{"v"}}})
		return r, nil
	}}
}

// TestAdmissionGateCapsConcurrency: a 32-client burst against a gate of 2
// units never has more than 2 computes in flight, and every request still
// succeeds.
func TestAdmissionGateCapsConcurrency(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	const clients = 32
	var inFlight, peak, total atomic.Int64
	arts := make([]repro.Artifact, clients)
	for i := range arts {
		id := fmt.Sprintf("burst%02d", i)
		arts[i] = repro.Artifact{ID: id, Title: id, Compute: func(repro.Options) (*result.Result, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(10 * time.Millisecond)
			inFlight.Add(-1)
			total.Add(1)
			r := &result.Result{}
			r.AddTable(&result.Table{Title: id, Headers: []string{"h"}, Rows: [][]string{{"v"}}})
			return r, nil
		}}
	}
	h := New(Config{Artifacts: arts, GateUnits: 2, Timeout: 30 * time.Second}).Handler()
	var wg sync.WaitGroup
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest("GET", fmt.Sprintf("/api/v1/artifacts/burst%02d", i), nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			codes[i] = rec.Code
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != 200 {
			t.Errorf("client %d got %d", i, c)
		}
	}
	if total.Load() != clients {
		t.Errorf("%d computes for %d clients", total.Load(), clients)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("concurrent computes peaked at %d, gate allows 2", p)
	}
}

// TestComputeTimeout: a compute slower than the request budget answers 504
// — and the abandoned compute still lands in the cache, so the retry is
// instant.
func TestComputeTimeout(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	var computes atomic.Int64
	arts := []repro.Artifact{counting("slowpoke", &computes, 150*time.Millisecond, nil)}
	h := New(Config{Artifacts: arts, Timeout: 30 * time.Millisecond}).Handler()
	if rec := get(t, h, "/api/v1/artifacts/slowpoke", nil); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("slow compute = %d, want 504", rec.Code)
	}
	// The abandoned compute keeps running into the cache; once it lands,
	// retries are instant hits. Poll with retries (the once-cell blocks
	// retries until the original compute completes).
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec := get(t, h, "/api/v1/artifacts/slowpoke", nil)
		if rec.Code == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retry still failing (%d) after the abandoned compute should have landed", rec.Code)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("model stack ran %d times, want 1 (retry must hit the cache)", n)
	}
}

// TestShutdownDrains: an accepted request in mid-compute survives
// Shutdown — the listener closes, the response completes, Shutdown
// returns.
func TestShutdownDrains(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	var computes atomic.Int64
	blocker := make(chan struct{})
	arts := []repro.Artifact{counting("drainme", &computes, 0, blocker)}
	srv := &http.Server{Handler: New(Config{Artifacts: arts}).Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	type resp struct {
		code int
		body string
		err  error
	}
	got := make(chan resp, 1)
	go func() {
		r, err := http.Get("http://" + ln.Addr().String() + "/api/v1/artifacts/drainme")
		if err != nil {
			got <- resp{err: err}
			return
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		got <- resp{code: r.StatusCode, body: string(b)}
	}()
	// The request is in-flight once its compute has started.
	waitFor(t, func() bool { return computes.Load() == 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Shutdown must wait for the in-flight request, not race it.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(30 * time.Millisecond):
	}
	close(blocker)
	r := <-got
	if r.err != nil || r.code != 200 {
		t.Fatalf("drained request: code=%d err=%v", r.code, r.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// New connections are refused after drain.
	if _, err := http.Get("http://" + ln.Addr().String() + "/healthz"); err == nil {
		t.Fatal("server still accepting after Shutdown")
	}
}

// metricValue scrapes /metrics and returns the value of the label-free
// sample name.
func metricValue(t *testing.T, h http.Handler, name string) string {
	t.Helper()
	for _, line := range strings.Split(get(t, h, "/metrics", nil).Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("/metrics has no sample %s", name)
	return ""
}

// TestFlushEndpoint: POST /api/v1/cache/flush empties the compute cache
// and the body memo, and the next GET recomputes the same bytes.
func TestFlushEndpoint(t *testing.T) {
	repro.ResetCache()
	h := New(Config{}).Handler()
	first := get(t, h, "/api/v1/artifacts/t2", nil)
	if first.Code != 200 {
		t.Fatal("seed request failed")
	}
	if repro.ReadCacheStats().Entries == 0 {
		t.Fatal("expected a cache entry before flush")
	}
	if got := metricValue(t, h, "nanoreprod_body_cache_entries"); got != "1" {
		t.Fatalf("body memo entries before flush = %s, want 1", got)
	}
	req := httptest.NewRequest("POST", "/api/v1/cache/flush", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("flush = %d", rec.Code)
	}
	if got := repro.ReadCacheStats().Entries; got != 0 {
		t.Fatalf("entries after flush = %d", got)
	}
	if got := metricValue(t, h, "nanoreprod_body_cache_entries"); got != "0" {
		t.Fatalf("body memo entries after flush = %s, want 0", got)
	}
	again := get(t, h, "/api/v1/artifacts/t2", nil)
	if again.Code != 200 || !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
		t.Fatalf("GET after flush = %d, or its body differs from the first", again.Code)
	}
}

// TestMetricsExposition: the daemon's metric families show up on /metrics
// and move with traffic — in particular a repeated artifact GET registers
// as a body-memo hit, and the same artifact in another format as a
// compute-cache hit (every encoding shares one compute entry).
func TestMetricsExposition(t *testing.T) {
	repro.ResetCache()
	s := New(Config{})
	h := s.Handler()
	get(t, h, "/api/v1/artifacts/f2", nil)
	memoHits := s.met.bodyCacheHits.Value()
	get(t, h, "/api/v1/artifacts/f2", nil)
	if s.met.bodyCacheHits.Value() <= memoHits {
		t.Error("repeated GET did not count as a body memo hit")
	}
	before := repro.ReadCacheStats()
	get(t, h, "/api/v1/artifacts/f2?format=json", nil)
	if repro.ReadCacheStats().Hits <= before.Hits {
		t.Error("GET in another format did not count as a compute-cache hit")
	}
	body := get(t, h, "/metrics", nil).Body.String()
	for _, want := range []string{
		"nanoreprod_http_requests_total",
		"nanoreprod_http_request_duration_seconds_bucket",
		"nanoreprod_http_in_flight_requests",
		`nanoreprod_artifact_requests_total{artifact="f2"}`,
		`nanoreprod_artifact_compute_seconds_total{artifact="f2"}`,
		"nanoreprod_cache_hits_total",
		"nanoreprod_cache_misses_total",
		"nanoreprod_cache_entries",
		"nanoreprod_body_cache_hits_total",
		"nanoreprod_body_cache_entries",
		"nanoreprod_gate_capacity_units",
		"nanoreprod_gate_in_flight_units",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
