// Package serve is the HTTP layer of the reproduction: it exposes the
// artifact registry of internal/repro as a long-lived daemon
// (cmd/nanoreprod) instead of a one-shot CLI. The routing is thin — the
// substance is the production behavior around it:
//
//   - Strong ETags derived from artifact ID + the compute-cache key, so
//     If-None-Match revalidation answers 304 without touching the models,
//     and an ETag match guarantees byte-identical data (the same guarantee
//     the compute cache gives in-process).
//   - A weighted FIFO admission gate: an artifact costs one compute unit
//     and a report one per artifact, requests run concurrently up to the
//     configured capacity, and a long trace job drains the gate and runs
//     alone instead of starving the pool.
//   - Per-request timeouts that cut the handler loose (503/504) while the
//     abandoned compute still completes into the cache, so a retry is a
//     hit rather than a second solve. The gate units stay held until the
//     model work actually finishes — the gate bounds real solver
//     concurrency, not merely live handlers.
//   - One bounded map from body key (the strong ETag) to response body:
//     identical requests in flight wait on one leader's compute and
//     encode, and a warm repeat of one representation is a map lookup and
//     a write, with no gate units, compute goroutine or re-encode.
//   - Prometheus metrics (internal/obs) for latency, admission, per-
//     artifact compute time, the compute cache's hit/miss/bypass counters
//     and the body memo, plus /debug/pprof.
//
// Handlers produce bytes identical to cmd/nanorepro for the same options:
// both sit on repro.ComputeCached and the internal/render encoders.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	jobsvc "nanometer/internal/jobs"
	"nanometer/internal/render"
	"nanometer/internal/repro"
	"nanometer/internal/result"
	"nanometer/internal/runner"
	"nanometer/internal/store"
	"nanometer/internal/trace"
)

// Config parameterizes a Server. The zero value serves the full registry
// with sane production defaults.
type Config struct {
	// Artifacts is the registry to serve; nil selects repro.Artifacts().
	Artifacts []repro.Artifact
	// GateUnits is the admission-gate capacity in compute units (one unit
	// ≈ one default-mesh artifact compute). ≤ 0 selects
	// max(8, 4·GOMAXPROCS).
	GateUnits int64
	// Timeout is the per-request compute budget (admission wait included).
	// ≤ 0 selects 30 s.
	Timeout time.Duration
	// Jobs is the worker count for full-report requests; ≤ 0 selects
	// GOMAXPROCS.
	Jobs int
	// Store, when non-nil, is the disk-backed result store installed as
	// the compute cache's second level (process-wide via
	// repro.SetResultStore) and exported on /metrics. Replicas sharing a
	// store directory warm each other through it.
	Store *store.Store
	// JobWorkers bounds concurrently running trace-simulation jobs; ≤ 0
	// selects 2. Queue depth and retention use the jobs package defaults.
	JobWorkers int
}

// Server routes HTTP requests onto the artifact registry. Create with New,
// mount via Handler.
type Server struct {
	byID    map[string]repro.Artifact
	order   []repro.Artifact
	gate    *gate
	bodies  *bodyTable
	store   *store.Store
	jobq    *jobsvc.Queue
	timeout time.Duration
	jobs    int
	met     *metrics
	mux     *http.ServeMux

	// scenarioNames is the admitted metrics-label set for scenario names
	// (bounded; see scenarioLabel).
	labelMu       sync.Mutex
	scenarioNames map[string]bool // guarded by labelMu
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	arts := cfg.Artifacts
	if arts == nil {
		arts = repro.Artifacts()
	}
	units := cfg.GateUnits
	if units <= 0 {
		units = int64(4 * runtime.GOMAXPROCS(0))
		if units < 8 {
			units = 8
		}
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	jobs := cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		byID:          make(map[string]repro.Artifact, len(arts)),
		order:         arts,
		gate:          newGate(units),
		bodies:        newBodyTable(),
		timeout:       timeout,
		jobs:          jobs,
		scenarioNames: make(map[string]bool),
	}
	for _, a := range arts {
		s.byID[a.ID] = a
	}
	if cfg.Store != nil {
		// The compute cache (and so the store hook) is process-wide;
		// installing it here keeps single-binary wiring trivial.
		s.store = cfg.Store
		repro.SetResultStore(cfg.Store)
	}
	// The job queue shares the admission gate with one-shot requests: a
	// running simulation holds weight like a solve does, and a canceled
	// job hands its units back as soon as the simulator observes the
	// cancel. The disk store (when configured) doubles as the job result
	// store, so a resubmitted trace is a store hit across restarts too.
	jcfg := jobsvc.Config{Workers: cfg.JobWorkers, Admit: func(ctx context.Context, tr *trace.Trace) (func(), error) {
		return s.gate.Acquire(ctx, jobWeight(tr))
	}}
	if cfg.Store != nil {
		jcfg.Store = cfg.Store
	}
	s.jobq = jobsvc.New(jcfg)
	s.met = newMetrics(s.gate, s.store, s.jobq, s.bodies)
	s.jobq.OnFinish = func(state jobsvc.State, cached bool) {
		s.met.jobsFinished.With(stateLabel(state)).Inc()
		if cached {
			s.met.jobsCached.Inc()
		}
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// GateUnits returns the admission-gate capacity in effect: Config.GateUnits,
// or the default it selects. /metrics exports the same value as
// nanoreprod_gate_capacity_units.
func (s *Server) GateUnits() int64 { return s.gate.cap }

// Close cancels every trace job and waits for the workers to drain. Call
// after the HTTP server has shut down.
func (s *Server) Close() { s.jobq.Close() }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /api/v1/artifacts", s.handleIndex)
	s.mux.HandleFunc("GET /api/v1/artifacts/{id}", s.handleArtifact)
	s.mux.HandleFunc("GET /api/v1/report", s.handleReport)
	s.mux.HandleFunc("POST /api/v1/scenarios", s.handleScenarios)
	// The trace-simulation job service: long computes live behind a job
	// handle instead of a hanging request.
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleJobIndex)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/stream", s.handleJobStream)
	s.mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("POST /api/v1/cache/flush", s.handleFlush)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.met.reg.WritePrometheus(w)
	})
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Handler returns the instrumented root handler (mount on an http.Server).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.met.inFlight.Inc()
		defer s.met.inFlight.Dec()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		s.mux.ServeHTTP(rec, r)
		s.met.requests.With(codeLabel(rec.code)).Inc()
		s.met.duration.Observe(time.Since(start).Seconds())
	})
}

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush passes through, so the NDJSON streams (scenarios, job progress)
// reach the client line by line rather than when the handler returns.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// apiError answers a failed API request with a JSON body (the API speaks
// JSON even when the requested representation was text or CSV). Validator
// headers are scrubbed defensively: an error body must never ship a strong
// ETag or caching policy, or a client's If-None-Match revalidation could
// 304 an error it never successfully fetched.
func apiError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Del("ETag")
	w.Header().Del("Cache-Control")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// requestOptions parses and validates the query parameters shared by the
// artifact and report endpoints: the compute options, and the encoding with
// its text settings.
func requestOptions(r *http.Request) (opts repro.Options, enc render.Encoding, err error) {
	q := r.URL.Query()
	format := q.Get("format")
	if format == "" {
		format = "text"
	}
	enc, err = render.NewEncoding(format, render.Text{Verbose: boolParam(q.Get("verbose")), Plot: boolParam(q.Get("plot"))})
	if errors.Is(err, render.ErrTextOnly) {
		return opts, enc, fmt.Errorf("verbose and plot only apply to format=text")
	}
	if err != nil {
		return opts, enc, fmt.Errorf("unknown format %q (want text, json, or csv)", format)
	}
	opts.MeshN, err = meshNParam(q)
	return opts, enc, err
}

// meshNParam parses the mesh-n query parameter, 0 when absent. It arrives
// from untrusted clients and goes through the same ValidateMeshN the CLI
// flag uses.
func meshNParam(q url.Values) (int, error) {
	v := q.Get("mesh-n")
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("mesh-n %q is not an integer", v)
	}
	return n, repro.ValidateMeshN(n)
}

func boolParam(v string) bool { return v == "1" || v == "true" }

// etagFor derives the strong ETag of one artifact representation: the
// artifact ID, the compute-cache key (everything that can change the
// computed data), and the encoding discriminators (everything that can
// change its serialization). Compute is deterministic, so equal ETags mean
// byte-identical bodies — which is also why the ETag can be issued without
// encoding anything.
func etagFor(id string, opts repro.Options, enc render.Encoding) string {
	tag := enc.Format()
	if enc.Text.Verbose {
		tag += "v"
	}
	if enc.Text.Plot {
		tag += "p"
	}
	return `"` + id + "-" + opts.CacheKey() + "-" + tag + `"`
}

// etagMatches implements If-None-Match's weak comparison (RFC 9110
// §13.1.2): a W/ prefix on a candidate is ignored, so a tag that a
// compressing proxy weakened still revalidates.
func etagMatches(header, etag string) bool {
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimPrefix(strings.TrimSpace(cand), "W/")
		if cand == "*" || cand == etag {
			return true
		}
	}
	return false
}

// contentType maps a format to its media type.
func contentType(format string) string {
	switch format {
	case "json":
		return "application/json"
	case "csv":
		return "text/csv; charset=utf-8"
	default:
		return "text/plain; charset=utf-8"
	}
}

// handleIndex lists the registry.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		URL   string `json:"url"`
	}
	index := struct {
		Artifacts []entry  `json:"artifacts"`
		Formats   []string `json:"formats"`
	}{Formats: []string{"text", "json", "csv"}}
	for _, a := range s.order {
		index.Artifacts = append(index.Artifacts, entry{a.ID, a.Title, "/api/v1/artifacts/" + a.ID})
	}
	writeJSON(w, http.StatusOK, index)
}

// handleArtifact serves one artifact in the requested representation.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	a, ok := s.byID[id]
	if !ok {
		apiError(w, http.StatusNotFound, "unknown artifact %q (GET /api/v1/artifacts for the index)", id)
		return
	}
	s.met.artifactTotal.With(artifactLabel(a)).Inc()
	opts, enc, err := requestOptions(r)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	etag := etagFor(id, opts, enc)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		s.met.notModified.Inc()
		w.Header().Set("ETag", etag)
		w.Header().Set("Cache-Control", "no-cache") // revalidate via ETag; 304 is cheap
		w.WriteHeader(http.StatusNotModified)
		return
	}
	rec, leader := s.bodies.join(etag)
	if s.writeKept(w, rec, etag, enc) {
		return
	}
	// The body is the one-artifact report: `nanorepro -only <id>`'s bytes.
	// One artifact costs one gate unit at any mesh-n: c8's mesh drop is a
	// closed form evaluated once per grid size, so no mesh size is dear.
	s.serveRecord(w, r, etag, etag, enc, rec, leader, 1, func(context.Context) ([]byte, error) {
		start := time.Now()
		res, cerr := a.ComputeCached(opts)
		s.met.computeSeconds.With(artifactLabel(a)).Add(time.Since(start).Seconds())
		if cerr != nil {
			return nil, fmt.Errorf("computing %s: %w", id, cerr)
		}
		var body bytes.Buffer
		if eerr := enc.EncodeReport(&body, []*result.Result{res}); eerr != nil {
			return nil, fmt.Errorf("encoding %s: %w", id, eerr)
		}
		return body.Bytes(), nil
	})
}

// handleReport serves the full run — the exact bytes `nanorepro
// -format=<f>` prints for the same options.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	opts, enc, err := requestOptions(r)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Reports carry no ETag. Their body key reuses etagFor's
	// discriminators behind a prefix, so it never equals a quoted
	// artifact ETag.
	key := "report:" + etagFor("", opts, enc)
	rec, leader := s.bodies.join(key)
	if s.writeKept(w, rec, "", enc) {
		return
	}
	// A report computes every artifact: price it as the sum of its parts
	// (clamped to capacity inside the gate).
	s.serveRecord(w, r, key, "", enc, rec, leader, int64(len(s.order)), func(ctx context.Context) ([]byte, error) {
		body, rerr := s.encodeReport(ctx, opts, enc)
		if rerr != nil {
			return nil, fmt.Errorf("report: %w", rerr)
		}
		return body, nil
	})
}

// writeKept answers from rec if it already holds a kept body: no gate
// units, goroutine, context or encode.
func (s *Server) writeKept(w http.ResponseWriter, rec *bodyRecord, etag string, enc render.Encoding) bool {
	body, ok := rec.ready()
	if ok {
		s.met.bodyCacheHits.Inc()
		writeBody(w, etag, enc, body)
	}
	return ok
}

// serveRecord answers from rec, which is still in flight. A follower
// (leader false) waits on the leader's record without touching the gate,
// so N identical concurrent requests cost one admission, not N. The leader
// acquires wt gate units and starts one goroutine that produces the body,
// finishes rec and then releases the units. Either waits under its own
// deadline: on expiry it answers 504 and walks away (a client that hung up
// first gets nothing and is recorded as 499), while the goroutine still
// finishes rec (kept, so the retry is a hit) and the compute lands in the
// compute cache. The gate units stay held until the work is done,
// so the gate bounds real solver concurrency, not merely live handlers.
func (s *Server) serveRecord(w http.ResponseWriter, r *http.Request, key, etag string, enc render.Encoding, rec *bodyRecord, leader bool,
	wt int64, produce func(context.Context) ([]byte, error)) {
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	if leader {
		release, err := s.gate.Acquire(ctx, wt)
		if err != nil {
			// Finish before answering, so followers 503 at once instead of
			// waiting out their deadlines.
			s.met.rejected.Inc()
			s.bodies.finish(key, rec, nil, fmt.Errorf("admission gate wait canceled: %w", err))
			writeRecord(w, etag, enc, rec)
			return
		}
		go func() {
			defer release()
			body, perr := produce(ctx)
			s.bodies.finish(key, rec, body, perr)
		}()
	} else {
		s.met.singleflightShared.Inc()
	}
	select {
	case <-rec.done:
		writeRecord(w, etag, enc, rec)
	case <-ctx.Done():
		if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// The client hung up first: nothing to answer, no timeout.
			clientGone(w)
			return
		}
		s.met.timeouts.Inc()
		apiError(w, http.StatusGatewayTimeout, "request deadline exceeded: %v", ctx.Err())
	}
}

// clientGone records status 499 (nginx's "client closed request") for a
// request whose client hung up, without writing anything to the
// connection.
func clientGone(w http.ResponseWriter) {
	if sr, ok := w.(*statusRecorder); ok {
		sr.code = 499
	}
}

// writeRecord answers with a finished record: its body, or 503 with
// Retry-After when a context cut the work short (the leader's gate wait,
// or a report whose leader went away), or 500 for any other failure.
func writeRecord(w http.ResponseWriter, etag string, enc render.Encoding, rec *bodyRecord) {
	switch {
	case rec.err == nil:
		writeBody(w, etag, enc, rec.body)
	case errors.Is(rec.err, context.Canceled) || errors.Is(rec.err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", "1")
		apiError(w, http.StatusServiceUnavailable, "%v", rec.err)
	default:
		apiError(w, http.StatusInternalServerError, "%v", rec.err)
	}
}

// handleFlush drops every memoized result and kept body (ResetCache is
// safe under load — in-flight computes finish against the old generation).
func (s *Server) handleFlush(w http.ResponseWriter, _ *http.Request) {
	before := repro.ReadCacheStats().Entries
	repro.ResetCache()
	s.bodies.reset()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"flushed": true, "entries_dropped": before})
}

// encodeReport computes the whole registry and encodes it the way the CLI
// does, so the bytes match `nanorepro` for the same options. ctx is the
// request's: a report whose client has gone away stops launching artifacts
// (the ones already solving run to completion and still land in the
// compute cache, exactly like the single-artifact path).
func (s *Server) encodeReport(ctx context.Context, opts repro.Options, enc render.Encoding) ([]byte, error) {
	results, err := repro.ComputeAllCtx(ctx, runner.Pool{Workers: s.jobs}, s.order, opts)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = enc.EncodeReport(&buf, results)
	return buf.Bytes(), err
}

// writeBody answers 200 with body. An artifact's validators ride only on
// this path: a 5xx must never carry a strong ETag, or a client that cached
// the error body could have it revalidated into a 304 forever. Reports
// (etag "") carry none.
func writeBody(w http.ResponseWriter, etag string, enc render.Encoding, body []byte) {
	if etag != "" {
		w.Header().Set("ETag", etag)
		w.Header().Set("Cache-Control", "no-cache")
	}
	w.Header().Set("Content-Type", contentType(enc.Format()))
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}
