package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"nanometer/internal/jobs"
	"nanometer/internal/trace"
)

// jobWeight prices a trace job in gate units: a simulation is cheap per
// interval but long, so weight grows with trace length — a maximal
// 2×10⁸-interval job drains a default gate and runs alone.
func jobWeight(tr *trace.Trace) int64 {
	return 1 + int64(tr.Intervals())/5_000_000
}

// cancelGrace bounds how long DELETE waits for the canceled job to reach
// its terminal state. The simulator observes cancellation within one
// control interval, so this is comfortably long; it exists so a DELETE
// response reports the settled state (and freed gate units) rather than a
// snapshot mid-teardown.
const cancelGrace = 5 * time.Second

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleJobSubmit is POST /api/v1/jobs: the body is one trace document
// (same schema as the CLI's -trace files). A store hit answers 200 with
// the done-from-store job; otherwise the job queues and the response is
// 202 with its status URL.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, trace.MaxFileBytes))
	if err != nil {
		apiError(w, bodyErrStatus(err), "reading trace body: %v", err)
		return
	}
	tr, err := trace.Parse(body)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.met.jobsSubmitted.Inc()
	j, err := s.jobq.Submit(tr)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		apiError(w, http.StatusTooManyRequests, "%v", err)
		return
	case err != nil:
		apiError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	snap := j.Snapshot()
	w.Header().Set("Location", "/api/v1/jobs/"+j.ID)
	// 200 only for a store answer: a short job may already be done by the
	// time the snapshot is taken, and it was still accepted, not answered.
	code := http.StatusAccepted
	if snap.Cached {
		code = http.StatusOK
	}
	writeJSON(w, code, snap)
}

// handleJobIndex is GET /api/v1/jobs: every retained job, oldest first.
func (s *Server) handleJobIndex(w http.ResponseWriter, _ *http.Request) {
	all := s.jobq.Jobs()
	index := struct {
		Jobs []jobs.Snapshot `json:"jobs"`
	}{Jobs: make([]jobs.Snapshot, 0, len(all))}
	for _, j := range all {
		index.Jobs = append(index.Jobs, j.Snapshot())
	}
	writeJSON(w, http.StatusOK, index)
}

// handleJobStatus is GET /api/v1/jobs/{id}: state + latest progress.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobq.Get(r.PathValue("id"))
	if !ok {
		apiError(w, http.StatusNotFound, "unknown job %q (GET /api/v1/jobs for the index)", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// handleJobResult is GET /api/v1/jobs/{id}/result: the bare typed result
// of a done job. 409 while the job is still queued/running, 410 for a
// canceled job, 500 for a failed one.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobq.Get(r.PathValue("id"))
	if !ok {
		apiError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	res, jerr, done := j.Result()
	if done {
		writeJSON(w, http.StatusOK, res)
		return
	}
	switch j.State() {
	case jobs.StateCanceled:
		apiError(w, http.StatusGone, "job %s was canceled", j.ID)
	case jobs.StateFailed:
		apiError(w, http.StatusInternalServerError, "job %s failed: %v", j.ID, jerr)
	default:
		apiError(w, http.StatusConflict, "job %s is %s (poll status or stream)", j.ID, j.State())
	}
}

// handleJobStream is GET /api/v1/jobs/{id}/stream: NDJSON incremental
// progress. Every chunk emitted so far replays first, then chunks stream
// as the simulation produces them; the final line is the job's terminal
// snapshot (distinguishable by its "state" field). A canceled stream
// (client hangup) stops reading without touching the job.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobq.Get(r.PathValue("id"))
	if !ok {
		apiError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	since := 0
	for {
		chunks, more, terminal := j.Chunks(since)
		for i := range chunks {
			if err := enc.Encode(&chunks[i]); err != nil {
				return
			}
		}
		since += len(chunks)
		if len(chunks) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			break
		}
		select {
		case <-more:
		case <-j.Done():
		case <-r.Context().Done():
			return
		}
	}
	enc.Encode(j.Snapshot())
	if flusher != nil {
		flusher.Flush()
	}
}

// handleJobCancel is DELETE /api/v1/jobs/{id}. Cancellation reaches a
// running simulation within one control interval; the handler waits (up
// to cancelGrace) for the terminal state so the response reports the
// settled job — gate units already released. Canceling a terminal job is
// an idempotent no-op answering its current snapshot.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobq.Get(id)
	if !ok {
		apiError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	s.jobq.Cancel(id)
	select {
	case <-j.Done():
	case <-r.Context().Done():
	case <-time.After(cancelGrace):
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}
