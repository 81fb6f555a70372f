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

// scenarioLabel maps a variant name to its metrics label, the base
// scenario name: sweep suffixes like "/vdd=0.800" fold into their parent.
// The names come from untrusted POST bodies; the vec's own cap
// (obs.MaxLabelValues) counts names past the 64th under "other".
func scenarioLabel(name string) string {
	base, _, _ := strings.Cut(name, "/")
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
// back as NDJSON in grid order regardless of completion order. No variant
// re-solves c8's mesh: every mesh of one size scales the same unit drop,
// solved once per process (powergrid.Mesh.Solve), so a sweep at a new
// mesh-n pays for one solve and the rest of its variants for none.
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
	if err == nil {
		err = repro.CheckExpectations(sc, s.order)
	}
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
	wt := int64(len(arts)) // one unit per artifact, as a report
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
			s.met.scenarioComputes.With(scenarioLabel(v.Name)).Inc()
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
				// A client that hung up gets nothing more. On the deadline,
				// stop waiting but keep emitting one line per variant so the
				// stream stays parseable and complete. Either way the
				// abandoned computes finish into the cache and release their
				// gate units.
				if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
					return
				}
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
