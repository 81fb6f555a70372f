package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"nanometer/internal/repro"
	"nanometer/internal/result"
	"nanometer/internal/runner"
	"nanometer/internal/scenario"
)

// bodyErrStatus maps a failure to read a request body through
// http.MaxBytesReader to its HTTP status: 413 only for the reader's limit;
// every other failure (client hung up mid-body, malformed chunking) is the
// client's bad request, not an oversize one.
func bodyErrStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// maxScenarioLabels bounds the cardinality of the scenario metrics label.
// Scenario names come from untrusted POST bodies, so without a cap a client
// could mint one time series per request; past the cap new names fold into
// the "other" child and /metrics stays scrape-sized.
const maxScenarioLabels = 64

// scenarioLabel maps a variant name to its metrics label: the base scenario
// name (sweep suffixes like "/vdd=0.800" fold into their parent), admitted
// into the label set until the cardinality cap, then "other".
func (s *Server) scenarioLabel(name string) string {
	base := name
	if i := strings.IndexByte(base, '/'); i >= 0 {
		base = base[:i]
	}
	s.labelMu.Lock()
	defer s.labelMu.Unlock()
	if s.scenarioNames[base] {
		return base
	}
	if len(s.scenarioNames) >= maxScenarioLabels {
		return "other"
	}
	s.scenarioNames[base] = true
	return base
}

// variantLine is one NDJSON line of a scenarios response: the typed results
// of one sweep variant (or the whole scenario when there is no sweep). A
// failed variant carries its error in-band so the stream — and the variants
// after it — survive one bad grid corner.
type variantLine struct {
	// Scenario is the variant's derived name (e.g. "vddsweep/vdd=0.800").
	Scenario string `json:"scenario"`
	// Key is the scenario content digest, the same value folded into the
	// compute-cache key; two lines with equal keys describe identical
	// roadmaps.
	Key string `json:"key"`
	// Artifacts holds the typed results that computed, in registry order.
	Artifacts []*result.Result `json:"artifacts,omitempty"`
	// Error aggregates this variant's failures (admission cut short,
	// artifact computes that errored). Partial results still appear above.
	Error string `json:"error,omitempty"`
}

// handleScenarios is POST /api/v1/scenarios: the body is one scenario
// document (same schema as the CLI's -scenario files), validated by the
// strict scenario.Parse; a sweep expands into its grid. Every variant is
// priced and admitted through the weighted FIFO gate independently — the
// grid fans onto the compute pool as capacity allows — and results stream
// back as NDJSON in grid order regardless of completion order.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	arts := s.order
	if only := q.Get("only"); only != "" {
		arts = nil
		for _, id := range strings.Split(only, ",") {
			id = strings.TrimSpace(id)
			a, ok := s.byID[id]
			if !ok {
				apiError(w, http.StatusBadRequest, "unknown artifact %q (GET /api/v1/artifacts for the index)", id)
				return
			}
			arts = append(arts, a)
		}
	}
	meshN, err := meshNParam(q)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, scenario.MaxFileBytes))
	if err != nil {
		apiError(w, bodyErrStatus(err), "reading scenario body: %v", err)
		return
	}
	sc, err := scenario.Parse(body)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	variants, err := sc.Variants()
	if err != nil {
		apiError(w, http.StatusBadRequest, "expanding sweep: %v", err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	type outcome struct {
		results []*result.Result
		err     error
	}
	chans := make([]chan outcome, len(variants))
	wt := int64(len(arts)) * weight(meshN)
	// Prime the sweep's mesh solves before the variants fan out: priming
	// dedupes identical meshes and solves the distinct ones solo, and each
	// variant's compute consumes its parked, bit-identical drop. Priming is
	// real solver work, so it must hold gate capacity like any variant
	// would — one variant's weight covers it (priming replaces the
	// variants' individual solves, it does not add to them). Best-effort:
	// an admission timeout just skips priming, and the variants solve solo
	// as before.
	if len(variants) > 1 {
		if release, aerr := s.gate.Acquire(ctx, wt); aerr == nil {
			repro.PrimeVariants(arts, repro.Options{MeshN: meshN}, variants)
			release()
		}
	}
	for i, v := range variants {
		ch := make(chan outcome, 1)
		chans[i] = ch
		go func(v *scenario.Scenario) {
			release, aerr := s.gate.Acquire(ctx, wt)
			if aerr != nil {
				s.met.rejected.Inc()
				ch <- outcome{err: fmt.Errorf("admission gate wait canceled: %w", aerr)}
				return
			}
			defer release()
			s.met.scenarioComputes.With(s.scenarioLabel(v.Name)).Inc()
			opts := repro.Options{MeshN: meshN, Scenario: v}
			// ctx carries both the request deadline and the client
			// disconnect: a hung-up stream stops fanning new artifact
			// computes onto the pool instead of running the grid to
			// completion while holding gate weight.
			results, cerr := repro.ComputeAllCtx(ctx, runner.Pool{Workers: s.jobs}, arts, opts)
			ch <- outcome{results, cerr}
		}(v)
	}

	// Stream in grid order. The header commits before the first variant
	// finishes, so failures from here on are typed lines, not status codes.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	timedOut := false
	for i, v := range variants {
		line := variantLine{Scenario: v.Name, Key: v.Key()}
		if timedOut {
			line.Error = "request deadline exceeded before this variant was collected"
		} else {
			select {
			case out := <-chans[i]:
				for _, res := range out.results {
					if res != nil {
						line.Artifacts = append(line.Artifacts, res)
					}
				}
				if out.err != nil {
					line.Error = out.err.Error()
				}
			case <-ctx.Done():
				// Stop waiting but keep emitting one line per variant so the
				// stream stays parseable and complete. The abandoned computes
				// finish into the cache and release their gate units.
				s.met.timeouts.Inc()
				timedOut = true
				line.Error = "request deadline exceeded before this variant was collected"
			}
		}
		if err := enc.Encode(line); err != nil {
			return // client hung up; goroutines drain via their buffered channels
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}
