package serve

import (
	"context"
	"strings"
	"testing"

	jobsvc "nanometer/internal/jobs"
	"nanometer/internal/render"
	"nanometer/internal/repro"
	"nanometer/internal/result"
)

// TestLabelHelpersBound pins the cardinality guards metriclabel steers
// dynamic label values through: each helper maps its full input domain
// onto a bounded label set.
func TestLabelHelpersBound(t *testing.T) {
	// In-range status codes pass through; everything else — including
	// hostile or nonsense values — folds to "other".
	for code, want := range map[int]string{
		200: "200", 404: "404", 599: "599", 100: "100",
		99: "other", 600: "other", 0: "other", -7: "other", 1 << 30: "other",
	} {
		if got := codeLabel(code); got != want {
			t.Errorf("codeLabel(%d) = %q, want %q", code, got, want)
		}
	}
	// Job states are a closed five-value enum; the helper is the identity
	// over it.
	for _, s := range []jobsvc.State{
		jobsvc.StateQueued, jobsvc.StateRunning, jobsvc.StateDone,
		jobsvc.StateFailed, jobsvc.StateCanceled,
	} {
		if got := stateLabel(s); got != string(s) {
			t.Errorf("stateLabel(%q) = %q", s, got)
		}
	}
	// Artifact IDs come from the compile-time registry, identity again.
	if got := artifactLabel(repro.Artifact{ID: "t2"}); got != "t2" {
		t.Errorf("artifactLabel = %q, want t2", got)
	}
}

// TestEncodeReportHonorsCancel: a report request whose context is already
// canceled must not launch artifact computes — the fix that threaded ctx
// from the handler into the report encoder.
func TestEncodeReportHonorsCancel(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	computes := 0
	arts := []repro.Artifact{{ID: "a1", Title: "a1", Compute: func(repro.Options) (*result.Result, error) {
		computes++
		r := &result.Result{ID: "a1", Title: "a1"}
		r.AddTable(&result.Table{Title: "x", Headers: []string{"h"}, Rows: [][]string{{"v"}}})
		return r, nil
	}}}
	s := New(Config{Artifacts: arts, Jobs: 1})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, format := range []string{"json", "text", "csv"} {
		enc, err := render.NewEncoding(format, render.Text{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.encodeReport(ctx, repro.Options{}, enc); err == nil {
			t.Errorf("encodeReport(%s) with canceled ctx succeeded, want error", format)
		} else if !strings.Contains(err.Error(), "context canceled") {
			t.Errorf("encodeReport(%s) error = %v, want context cancellation", format, err)
		}
	}
	if computes != 0 {
		t.Errorf("canceled report launched %d computes, want 0", computes)
	}
}
