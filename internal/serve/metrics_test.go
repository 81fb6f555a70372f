package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"nanometer/internal/device"
	jobsvc "nanometer/internal/jobs"
	"nanometer/internal/memo"
	"nanometer/internal/render"
	"nanometer/internal/repro"
	"nanometer/internal/result"
	"nanometer/internal/store"
)

// TestLabelHelpersBound: in-range status codes keep their value as the
// requests label; everything else — hostile or nonsense values — is
// "other".
func TestLabelHelpersBound(t *testing.T) {
	for code, want := range map[int]string{
		200: "200", 404: "404", 599: "599", 100: "100",
		99: "other", 600: "other", 0: "other", -7: "other", 1 << 30: "other",
	} {
		if got := codeLabel(code); got != want {
			t.Errorf("codeLabel(%d) = %q, want %q", code, got, want)
		}
	}
}

// TestEncodeReportHonorsCancel: a report request whose context is already
// canceled must not launch artifact computes — the fix that threaded ctx
// from the handler into the report encoder.
func TestEncodeReportHonorsCancel(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	computes := 0
	arts := []repro.Artifact{{ID: "a1", Title: "a1", Compute: func(*device.Lab, int) (*result.Result, error) {
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

// TestScrapeScansStoreOnce: one /metrics scrape lists and stats the store
// directory once. Every scan allocates per file, so the allocations a
// scrape gains when the store grows from 0 to 20 files must be those of
// one Footprint scan, and the exported count and bytes must be its.
func TestScrapeScansStoreOnce(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	q := jobsvc.New(jobsvc.Config{})
	defer q.Close()
	m := newMetrics(newGate(8), st, q, memo.New[[]byte](1))
	scrape := func() float64 {
		return testing.AllocsPerRun(20, func() {
			if err := m.reg.WritePrometheus(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	scan := func() float64 { return testing.AllocsPerRun(20, func() { st.Footprint() }) }
	scrape0, scan0 := scrape(), scan()
	for i := 0; i < 20; i++ {
		st.Put("t2", fmt.Sprintf("k%02d", i), &result.Result{ID: "t2", Title: "stored"})
	}
	perScrape, perScan := scrape()-scrape0, scan()-scan0
	if perScan < 20 {
		t.Fatalf("a 20-file scan allocates %v more than an empty one; the bound cannot see scans", perScan)
	}
	if perScrape < 0.5*perScan || perScrape > 1.5*perScan {
		t.Fatalf("20 store files add %v allocations to a scrape, one scan adds %v: want exactly one scan", perScrape, perScan)
	}
	var body bytes.Buffer
	if err := m.reg.WritePrometheus(&body); err != nil {
		t.Fatal(err)
	}
	entries, size := st.Footprint()
	for _, want := range []string{
		fmt.Sprintf("nanoreprod_store_entries %d\n", entries),
		fmt.Sprintf("nanoreprod_store_bytes %d\n", size),
		"nanoreprod_store_evictions_total 0\n",
		"nanoreprod_store_corrupt_total 0\n",
	} {
		if entries != 20 || !strings.Contains(body.String(), want) {
			t.Errorf("scrape of a %d-file store lacks %q", entries, want)
		}
	}
}
