package repro

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/itrs"
	"nanometer/internal/render"
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
	text := mustEncoding(t, "text", render.Text{})
	serial, err := report(1, arts, Options{}, text)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := report(8, arts, Options{}, text)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 {
		t.Fatal("report rendered no output")
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel report differs from serial (%d vs %d bytes)", len(parallel), len(serial))
	}
}

// report runs the CLI's report path: compute the artifacts on a pool of
// workers, then encode the results in registry order. The error joins the
// compute and encode failures, as the CLI prints them.
func report(workers int, arts []Artifact, opts Options, enc render.Encoding) ([]byte, error) {
	results, computeErr := ComputeAllCtx(context.Background(), runner.Pool{Workers: workers}, arts, opts)
	var buf bytes.Buffer
	encodeErr := enc.EncodeReport(&buf, results)
	return buf.Bytes(), errors.Join(computeErr, encodeErr)
}

func mustEncoding(tb testing.TB, format string, text render.Text) render.Encoding {
	tb.Helper()
	enc, err := render.NewEncoding(format, text)
	if err != nil {
		tb.Fatal(err)
	}
	return enc
}

// TestReportLeavesCalibrationsIntact: ForNode hands every caller the
// Lab's cached device itself, so a caller that wrote to it would corrupt
// every later model. After a full report computed from an empty cache,
// each of the base Lab's devices must equal a fresh calibration bit for bit.
func TestReportLeavesCalibrationsIntact(t *testing.T) {
	if testing.Short() {
		t.Skip("full report render is slow; run without -short")
	}
	ResetCache()
	if _, err := ComputeAllCtx(context.Background(), runner.Pool{Workers: 2}, Artifacts(), Options{}); err != nil {
		t.Fatal(err)
	}
	fresh, err := device.NewLab(itrs.Base(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, nm := range device.BaseLab().NodesNM() {
		for _, get := range []func(*device.Lab, int) (*device.Device, error){
			(*device.Lab).ForNode, (*device.Lab).ForNodePMOS,
		} {
			used, err := get(device.BaseLab(), nm)
			if err != nil {
				t.Fatal(err)
			}
			want, err := get(fresh, nm)
			if err != nil {
				t.Fatal(err)
			}
			u, w := reflect.ValueOf(used).Elem(), reflect.ValueOf(want).Elem()
			for i := 0; i < u.NumField(); i++ {
				same := u.Field(i).Equal(w.Field(i))
				if u.Field(i).Kind() == reflect.Float64 {
					same = math.Float64bits(u.Field(i).Float()) == math.Float64bits(w.Field(i).Float())
				}
				if !same {
					t.Errorf("%s: %s is %v after the report, a fresh calibration gives %v",
						used.Name, u.Type().Field(i).Name, u.Field(i), w.Field(i))
				}
			}
		}
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
	// The unknown IDs pass through a map; the error names them sorted,
	// every time.
	unknown := []string{"zz", "nope", "x9", "bogus", "f99", "a0", "qq", "m1", "t1"}
	for rep := 0; rep < 20; rep++ {
		_, err := Select(unknown)
		if want := "repro: unknown artifact id(s) [a0 bogus f99 m1 nope qq x9 zz] (use -list)"; err == nil || err.Error() != want {
			t.Fatalf("Select(%v) error = %v, want %q", unknown, err, want)
		}
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
	enc := mustEncoding(t, "text", render.Text{CSVDir: filepath.Join(blocker, "sub")}) // under a file: writes must fail
	out, agg := report(4, arts, Options{}, enc)
	if agg == nil {
		t.Fatal("CSV failure must surface in the aggregate")
	}
	// t1 and c7 write no CSVs and must succeed, so f2 is the only failure;
	// its table text precedes the CSV step and is still emitted.
	if msg := agg.Error(); !strings.HasPrefix(msg, "f2: ") || strings.Contains(msg, "\n") {
		t.Fatalf("aggregate %q, want exactly one failure, naming f2", msg)
	}
	if !strings.Contains(string(out), "Figure 2 (as data)") {
		t.Fatal("partial output of the failed artifact was dropped")
	}
	if !strings.Contains(string(out), "C7. Vdd floor") {
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
	out, err := report(0, arts, Options{}, mustEncoding(t, "text", render.Text{CSVDir: dir}))
	if err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "figure2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(csv) == 0 {
		t.Fatal("empty CSV")
	}
	if !strings.Contains(string(out), "wrote "+filepath.Join(dir, "figure2.csv")) {
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
	return Artifact{ID: id, Title: id, Compute: func(*device.Lab, int) (*result.Result, error) {
		if err != nil {
			return nil, err
		}
		res := &result.Result{}
		res.AddTable(&result.Table{Title: marker, Headers: []string{"x"}})
		return res, nil
	}}
}

// TestJobsBindOptions: the compute jobs must close over each artifact
// independently (the classic range-variable trap would compute the last
// artifact N times), and a per-artifact compute error must reach the
// aggregate, named by its artifact, with a nil slot in its place.
func TestJobsBindOptions(t *testing.T) {
	arts := []Artifact{
		fakeArtifact("fake-a", "marker-A", nil),
		fakeArtifact("fake-b", "marker-B", errSentinel),
	}
	results, err := ComputeAllCtx(context.Background(), runner.Pool{Workers: 2}, arts, Options{})
	if results[0] == nil || results[0].Items[0].Table.Title != "marker-A" || results[1] != nil {
		t.Fatalf("results %v, %v", results[0], results[1])
	}
	if !errors.Is(err, errSentinel) || !strings.HasPrefix(err.Error(), "fake-b: ") {
		t.Fatalf("aggregate %v, want fake-b's sentinel", err)
	}
}
