package repro

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nanometer/internal/result"
	"nanometer/internal/runner"
)

// TestParallelOutputByteIdentical is the harness's core guarantee: the full
// report renders to exactly the same bytes for one worker and many.
func TestParallelOutputByteIdentical(t *testing.T) {
	arts := Artifacts()
	if testing.Short() {
		sel, err := Select([]string{"t1", "t2", "f2", "f5", "c7", "c8"})
		if err != nil {
			t.Fatal(err)
		}
		arts = sel
	}
	var opts Options
	var serial, parallel bytes.Buffer
	if _, err := (runner.Pool{Workers: 1}).RunToContext(context.Background(), &serial, Jobs(arts, opts)); err != nil {
		t.Fatal(err)
	}
	if _, err := (runner.Pool{Workers: 8}).RunToContext(context.Background(), &parallel, Jobs(arts, opts)); err != nil {
		t.Fatal(err)
	}
	if serial.Len() == 0 {
		t.Fatal("report rendered no output")
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("parallel report differs from serial (%d vs %d bytes)", parallel.Len(), serial.Len())
	}
}

func TestSelect(t *testing.T) {
	all, err := Select(nil)
	if err != nil || len(all) != len(Artifacts()) {
		t.Fatalf("empty selection must return everything: %v, %d", err, len(all))
	}
	// Order is canonical regardless of request order; IDs are
	// case-insensitive and tolerate blanks (flag splitting artifacts).
	sel, err := Select([]string{"C8", " f3", "", "t1"})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, a := range sel {
		ids = append(ids, a.ID)
	}
	if strings.Join(ids, ",") != "t1,f3,c8" {
		t.Fatalf("selection order %v, want canonical t1,f3,c8", ids)
	}
	if _, err := Select([]string{"t1", "nope"}); err == nil {
		t.Fatal("unknown id must error")
	}
}

// TestCSVFailureIsAggregatedNotFatal: a broken CSV directory fails only the
// figure artifacts, the rest of the report still renders, and the error
// aggregate names each broken artifact.
func TestCSVFailureIsAggregatedNotFatal(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	arts, err := Select([]string{"t1", "f2", "c7"})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{CSVDir: filepath.Join(blocker, "sub")} // Create() must fail
	var out bytes.Buffer
	results, sinkErr := (runner.Pool{Workers: 4}).RunToContext(context.Background(), &out, Jobs(arts, opts))
	if sinkErr != nil {
		t.Fatal(sinkErr)
	}
	agg := runner.Errs(results)
	if agg == nil {
		t.Fatal("CSV failure must surface in the aggregate")
	}
	if !strings.Contains(agg.Error(), "f2:") {
		t.Fatalf("aggregate %q does not name the broken artifact", agg.Error())
	}
	// t1 and c7 write no CSVs and must succeed; f2's table text precedes the
	// CSV step and is still emitted.
	for _, r := range results {
		if r.ID != "f2" && r.Err != nil {
			t.Fatalf("artifact %s failed: %v", r.ID, r.Err)
		}
	}
	if !strings.Contains(out.String(), "Figure 2 (as data)") {
		t.Fatal("partial output of the failed artifact was dropped")
	}
	if !strings.Contains(out.String(), "C7. Vdd floor") {
		t.Fatal("healthy artifacts after the failure were dropped")
	}
}

// TestCSVRoundTrip: with a real directory every selected figure writes its
// CSV and announces it in the report body.
func TestCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	arts, err := Select([]string{"f2"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	results, sinkErr := (runner.Pool{}).RunToContext(context.Background(), &out, Jobs(arts, Options{CSVDir: dir}))
	if sinkErr != nil {
		t.Fatal(sinkErr)
	}
	if err := runner.Errs(results); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "figure2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(csv) == 0 {
		t.Fatal("empty CSV")
	}
	if !strings.Contains(out.String(), "wrote "+filepath.Join(dir, "figure2.csv")) {
		t.Fatal("CSV write not announced in the report")
	}
}

// sanity: artifacts must not write to anything but w (no stray os.Stdout
// prints), which the byte-identity test can't see. Render one artifact and
// confirm output lands only in the buffer.
func TestRenderersWriteOnlyToWriter(t *testing.T) {
	for _, a := range Artifacts() {
		if a.Compute == nil {
			t.Fatalf("%s has no compute function", a.ID)
		}
	}
	arts, err := Select([]string{"c7"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := arts[0].Render(&buf, Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "C7.") {
		t.Fatalf("unexpected C7 output %q", buf.String())
	}
}

var errSentinel = errors.New("sentinel")

// fakeArtifact computes a one-table result whose title is the artifact's
// payload marker, failing with err when set.
func fakeArtifact(id, marker string, err error) Artifact {
	return Artifact{ID: id, Title: id, Compute: func(Options) (*result.Result, error) {
		if err != nil {
			return nil, err
		}
		res := &result.Result{}
		res.AddTable(&result.Table{Title: marker, Headers: []string{"x"}})
		return res, nil
	}}
}

// TestJobsBindOptions: Jobs must close over each artifact independently (the
// classic range-variable trap would render the last artifact N times), and
// per-artifact compute errors must reach the job results.
func TestJobsBindOptions(t *testing.T) {
	arts := []Artifact{
		fakeArtifact("fake-a", "marker-A", nil),
		fakeArtifact("fake-b", "marker-B", errSentinel),
	}
	results, _ := (runner.Pool{Workers: 2}).RunToContext(context.Background(), nil, Jobs(arts, Options{}))
	if !strings.Contains(string(results[0].Output), "marker-A") || len(results[1].Output) != 0 {
		t.Fatalf("outputs %q, %q", results[0].Output, results[1].Output)
	}
	if results[0].Err != nil || !errors.Is(results[1].Err, errSentinel) {
		t.Fatalf("errors %v, %v", results[0].Err, results[1].Err)
	}
}
