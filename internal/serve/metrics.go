package serve

import (
	"strconv"
	"sync/atomic"

	"nanometer/internal/jobs"
	"nanometer/internal/obs"
	"nanometer/internal/powergrid"
	"nanometer/internal/repro"
	"nanometer/internal/store"
)

// metrics is the daemon's instrument set, all registered on one obs
// registry that /metrics scrapes. Names are stable API — they appear in
// README, the CI smoke test, and any dashboards users build.
type metrics struct {
	reg *obs.Registry

	requests       *obs.CounterVec // nanoreprod_http_requests_total{code}
	duration       *obs.Histogram  // nanoreprod_http_request_duration_seconds
	inFlight       *obs.Gauge      // nanoreprod_http_in_flight_requests
	artifactTotal  *obs.CounterVec // nanoreprod_artifact_requests_total{artifact}
	computeSeconds *obs.CounterVec // nanoreprod_artifact_compute_seconds_total{artifact}
	notModified    *obs.Counter    // nanoreprod_etag_not_modified_total
	timeouts       *obs.Counter    // nanoreprod_request_timeouts_total
	rejected       *obs.Counter    // nanoreprod_gate_rejections_total

	singleflightShared *obs.Counter    // nanoreprod_singleflight_shared_total
	bodyCacheHits      *obs.Counter    // nanoreprod_body_cache_hits_total
	scenarioComputes   *obs.CounterVec // nanoreprod_scenario_computes_total{scenario}

	jobsSubmitted *obs.Counter    // nanoreprod_jobs_submitted_total
	jobsFinished  *obs.CounterVec // nanoreprod_jobs_finished_total{state}
	jobsCached    *obs.Counter    // nanoreprod_jobs_cached_total
}

func newMetrics(g *gate, st *store.Store, q *jobs.Queue, bodies *bodyTable) *metrics {
	reg := &obs.Registry{}
	m := &metrics{
		reg:      reg,
		requests: reg.CounterVec("nanoreprod_http_requests_total", "HTTP responses by status code.", "code"),
		duration: reg.Histogram("nanoreprod_http_request_duration_seconds",
			"End-to-end request latency (admission wait + compute + encode).", obs.DurationBuckets()),
		inFlight: reg.Gauge("nanoreprod_http_in_flight_requests", "Requests currently being handled."),
		artifactTotal: reg.CounterVec("nanoreprod_artifact_requests_total",
			"Artifact requests by artifact ID (304s included).", "artifact"),
		computeSeconds: reg.CounterVec("nanoreprod_artifact_compute_seconds_total",
			"Seconds spent in ComputeCached per artifact (cache hits cost ~0).", "artifact"),
		notModified: reg.Counter("nanoreprod_etag_not_modified_total",
			"Conditional requests answered 304 from the ETag alone."),
		timeouts: reg.Counter("nanoreprod_request_timeouts_total",
			"Requests that hit the per-request compute deadline."),
		rejected: reg.Counter("nanoreprod_gate_rejections_total",
			"Requests whose admission-gate wait was cut short (timeout or client gone)."),
		singleflightShared: reg.Counter("nanoreprod_singleflight_shared_total",
			"Requests collapsed onto another request's in-flight compute (no gate weight acquired)."),
		bodyCacheHits: reg.Counter("nanoreprod_body_cache_hits_total",
			"Artifact and report requests answered from the ETag-keyed body memo (no gate, compute or encode)."),
		scenarioComputes: reg.CounterVec("nanoreprod_scenario_computes_total",
			"Scenario-variant computes by base scenario name (sweep suffixes folded into the parent; names past the cardinality cap land in \"other\").", "scenario"),
		jobsSubmitted: reg.Counter("nanoreprod_jobs_submitted_total",
			"Trace-simulation jobs accepted by POST /api/v1/jobs (store-answered submits included)."),
		jobsFinished: reg.CounterVec("nanoreprod_jobs_finished_total",
			"Trace-simulation jobs reaching a terminal state, by state (done, failed, canceled).", "state"),
		jobsCached: reg.Counter("nanoreprod_jobs_cached_total",
			"Trace-simulation jobs answered from the result store without simulating."),
	}
	// Job-queue occupancy: active covers queued+running (the backpressure
	// bound), retained counts every job the API can still address.
	reg.GaugeFunc("nanoreprod_jobs_active",
		"Trace-simulation jobs currently queued or running.",
		func() float64 { a, _ := q.Stats(); return float64(a) })
	reg.GaugeFunc("nanoreprod_jobs_retained",
		"Trace-simulation jobs retained for status/result queries.",
		func() float64 { _, r := q.Stats(); return float64(r) })
	// The compute cache instruments live in internal/repro (they are
	// bumped inside ComputeCached itself); exported here as scrape-time
	// reads so the cache stays ignorant of HTTP.
	reg.CounterFunc("nanoreprod_cache_hits_total",
		"ComputeCached calls served from a memoized result.",
		func() float64 { return float64(repro.ReadCacheStats().Hits) })
	reg.CounterFunc("nanoreprod_cache_misses_total",
		"ComputeCached calls that computed and stored a new entry.",
		func() float64 { return float64(repro.ReadCacheStats().Misses) })
	reg.CounterFunc("nanoreprod_cache_bypass_total",
		"ComputeCached calls that computed uncached (NoCache or entry bound).",
		func() float64 { return float64(repro.ReadCacheStats().Bypassed) })
	reg.GaugeFunc("nanoreprod_cache_entries",
		"Memoized results currently held by the compute cache.",
		func() float64 { return float64(repro.ReadCacheStats().Entries) })
	reg.GaugeFunc("nanoreprod_body_cache_entries",
		"Encoded response bodies currently kept by the body memo.",
		func() float64 { return float64(bodies.entries()) })
	// The second-level result store: the hit/put counters live in the
	// compute cache (they move even when the store was installed outside
	// this server), the footprint gauges come from the store handle.
	reg.CounterFunc("nanoreprod_store_hits_total",
		"ComputeCached fills served from the result store instead of the solvers.",
		func() float64 { return float64(repro.ReadCacheStats().StoreHits) })
	reg.CounterFunc("nanoreprod_store_puts_total",
		"Computed results whose write landed in the result store.",
		func() float64 { return float64(repro.ReadCacheStats().StorePuts) })
	reg.CounterFunc("nanoreprod_store_put_errors_total",
		"Computed results whose write to the result store failed (not persisted).",
		func() float64 { return float64(repro.ReadCacheStats().StorePutErrors) })
	if st != nil {
		// One directory scan per scrape: the registry renders families in
		// registration order, so the entries gauge scans and leaves the
		// byte total for the bytes gauge right after it. Concurrent
		// scrapes may pair one scan's count with another's bytes, both
		// current readings of the same directory.
		var scannedBytes atomic.Int64
		reg.GaugeFunc("nanoreprod_store_entries",
			"Result files currently in the store directory (shared across replicas).",
			func() float64 {
				entries, bytes := st.Footprint()
				scannedBytes.Store(bytes)
				return float64(entries)
			})
		reg.GaugeFunc("nanoreprod_store_bytes",
			"Total bytes of result files in the store directory.",
			func() float64 { return float64(scannedBytes.Load()) })
		reg.CounterFunc("nanoreprod_store_evictions_total",
			"Store files evicted by the entry/byte bounds.",
			func() float64 { return float64(st.Counters().Evictions) })
		reg.CounterFunc("nanoreprod_store_corrupt_total",
			"Store files dropped on checksum or decode failure.",
			func() float64 { return float64(st.Counters().Corrupt) })
	}
	// Mesh-solver health: the MG-PCG iteration count is near-constant per
	// mesh size by construction, so iterations_total/solves_total drifting
	// upward flags a numerical regression (smoother, prolongation, coarse
	// solve) from a dashboard instead of a benchmark run.
	reg.CounterFunc("nanoreprod_mesh_solves_total",
		"Completed power-grid mesh solves.",
		func() float64 { return float64(powergrid.ReadSolveStats().Solves) })
	reg.CounterFunc("nanoreprod_mesh_solve_iterations_total",
		"Total MG-PCG iterations spent in mesh solves.",
		func() float64 { return float64(powergrid.ReadSolveStats().Iterations) })
	reg.CounterFunc("nanoreprod_mesh_solves_batched_total",
		"Subset of mesh solves run by sweep priming, duplicate variants fed by one primed solve included (scenario sweeps should push this toward solves_total).",
		func() float64 { return float64(powergrid.ReadSolveStats().Batched) })
	// Admission-gate visibility: how loaded the compute pool is and how
	// deep the queue behind it runs.
	reg.GaugeFunc("nanoreprod_gate_in_flight_units",
		"Weighted compute units currently admitted.",
		func() float64 { return float64(g.InFlight()) })
	reg.GaugeFunc("nanoreprod_gate_capacity_units",
		"Configured admission-gate capacity in compute units.",
		func() float64 { return float64(g.cap) })
	reg.GaugeFunc("nanoreprod_gate_waiting_requests",
		"Requests queued at the admission gate.",
		func() float64 { return float64(g.Waiting()) })
	return m
}

// The *Label helpers below are the cardinality guards metriclabel
// (nanolint) enforces: every dynamic value reaching a labeled vec flows
// through one of them, and each helper carries the argument for why the
// resulting label set is bounded.

// codeLabel folds an HTTP status code into the bounded label set the
// requests counter may grow. Codes in the standard 100–599 range keep
// their exact value (≤ 500 children); anything else — a buggy handler
// writing 0 or 999 — folds to "other" so one bad code path cannot mint
// unbounded registry children.
func codeLabel(code int) string {
	if code >= 100 && code <= 599 {
		return strconv.Itoa(code)
	}
	return "other"
}

// artifactLabel is the metric label for a registry artifact. Callers hold
// a repro.Artifact only after a registry lookup (byID or the order slice),
// and the registry is a fixed compile-time set, so the label population is
// bounded by construction.
func artifactLabel(a repro.Artifact) string { return a.ID }

// stateLabel is the metric label for a terminal job state. jobs.State is a
// closed enum (queued/running/done/failed/canceled), so the label set
// cannot exceed five values.
func stateLabel(s jobs.State) string { return string(s) }
