package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nanometer/internal/jobs"
	"nanometer/internal/repro"
	"nanometer/internal/result"
	"nanometer/internal/store"
)

const shortTraceDoc = `{"name":"e2e","dt_seconds":0.01,"generator":{"kind":"workload","intervals":3000}}`

// longTraceDoc is big enough to run for seconds: the cancel tests need a
// job that is demonstrably mid-flight when the DELETE lands.
const longTraceDoc = `{"name":"e2e-long","dt_seconds":0.01,"generator":{"kind":"workload","intervals":80000000}}`

func postTrace(t *testing.T, base, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeSnapshot(t *testing.T, r io.Reader) jobs.Snapshot {
	t.Helper()
	var snap jobs.Snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		t.Fatalf("decoding job snapshot: %v", err)
	}
	return snap
}

func awaitJobState(t *testing.T, base, id string, want jobs.State) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/api/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		snap := decodeSnapshot(t, resp.Body)
		resp.Body.Close()
		if snap.State == want {
			return snap
		}
		if snap.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s (error %q), want %s", id, snap.State, snap.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobsE2E drives the full lifecycle over real HTTP: submit, poll to
// done, fetch the typed result, and replay the finished chunk stream.
func TestJobsE2E(t *testing.T) {
	srv := New(Config{JobWorkers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postTrace(t, ts.URL, shortTraceDoc)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	snap := decodeSnapshot(t, resp.Body)
	resp.Body.Close()
	if loc != "/api/v1/jobs/"+snap.ID {
		t.Fatalf("Location %q vs job %q", loc, snap.ID)
	}

	// Result before done must be a 409, never a partial body.
	if early, err := http.Get(ts.URL + loc + "/result"); err != nil {
		t.Fatal(err)
	} else if early.Body.Close(); early.StatusCode != http.StatusConflict && early.StatusCode != http.StatusOK {
		t.Fatalf("early result fetch = %d", early.StatusCode)
	}

	awaitJobState(t, ts.URL, snap.ID, jobs.StateDone)

	resp, err := http.Get(ts.URL + loc + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d", resp.StatusCode)
	}
	var res result.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	resp.Body.Close()
	if res.ID != "trace:e2e" {
		t.Fatalf("result ID %q", res.ID)
	}

	// The finished stream replays every chunk, then the terminal snapshot.
	resp, err = http.Get(ts.URL + loc + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var lines []json.RawMessage
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, json.RawMessage(strings.Clone(sc.Text())))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("stream produced %d lines, want chunks + snapshot", len(lines))
	}
	final := decodeSnapshot(t, strings.NewReader(string(lines[len(lines)-1])))
	if final.State != jobs.StateDone {
		t.Fatalf("final stream line state %s", final.State)
	}
	var prev struct {
		Done int `json:"done"`
	}
	for _, ln := range lines[:len(lines)-1] {
		var p struct {
			Done int `json:"done"`
		}
		if err := json.Unmarshal(ln, &p); err != nil || p.Done <= prev.Done {
			t.Fatalf("chunk line %s not monotone (prev %d): %v", ln, prev.Done, err)
		}
		prev = p
	}

	// The index lists the job.
	resp, err = http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var index struct {
		Jobs []jobs.Snapshot `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&index); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(index.Jobs) != 1 || index.Jobs[0].ID != snap.ID {
		t.Fatalf("index %+v", index.Jobs)
	}
}

// TestJobsCancelReleasesGate pins the acceptance contract: a running
// job's DELETE cancels it within one control interval and the job's gate
// units return to the pool.
func TestJobsCancelReleasesGate(t *testing.T) {
	srv := New(Config{JobWorkers: 1, GateUnits: 64})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postTrace(t, ts.URL, longTraceDoc)
	snap := decodeSnapshot(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	awaitJobState(t, ts.URL, snap.ID, jobs.StateRunning)
	if got := srv.gate.InFlight(); got < 17 {
		t.Fatalf("running 80M-interval job holds %d gate units, want its weight (17)", got)
	}
	// Wait for the simulator's first progress chunk before canceling, so
	// the partial-progress assertion below does not race the first emit.
	stream, err := http.Get(ts.URL + "/api/v1/jobs/" + snap.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if sc := bufio.NewScanner(stream.Body); !sc.Scan() {
		t.Fatalf("no first progress chunk: %v", sc.Err())
	}
	stream.Body.Close()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+snap.ID, nil)
	start := time.Now()
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	settled := decodeSnapshot(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || settled.State != jobs.StateCanceled {
		t.Fatalf("DELETE = %d, state %s", resp.StatusCode, settled.State)
	}
	if waited := time.Since(start); waited > cancelGrace {
		t.Fatalf("DELETE took %v, cancellation did not land within a control interval", waited)
	}
	if settled.Progress == nil || settled.Progress.Done >= settled.Progress.Total {
		t.Fatalf("canceled job progress %+v, want partial", settled.Progress)
	}
	// The release fires just after the terminal state publishes; poll
	// briefly rather than racing it.
	deadline := time.Now().Add(2 * time.Second)
	for srv.gate.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("gate still holds %d units after cancel", srv.gate.InFlight())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Result of a canceled job is 410.
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("canceled result fetch = %d, want 410", resp.StatusCode)
	}

	// DELETE on a terminal job is an idempotent no-op.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+snap.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	again := decodeSnapshot(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || again.State != jobs.StateCanceled {
		t.Fatalf("second DELETE = %d, state %s", resp.StatusCode, again.State)
	}
}

// TestJobsStreamFollowsThenCancel streams a running job, sees at least one
// partial chunk, cancels mid-stream, and reads the canceled snapshot as
// the stream's final line.
func TestJobsStreamFollowsThenCancel(t *testing.T) {
	srv := New(Config{JobWorkers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postTrace(t, ts.URL, longTraceDoc)
	snap := decodeSnapshot(t, resp.Body)
	resp.Body.Close()

	stream, err := http.Get(ts.URL + "/api/v1/jobs/" + snap.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	if !sc.Scan() {
		t.Fatalf("no first chunk: %v", sc.Err())
	}
	var first struct {
		Done  int `json:"done"`
		Total int `json:"total"`
	}
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("first stream line %q: %v", sc.Text(), err)
	}
	if first.Done <= 0 || first.Done >= first.Total {
		t.Fatalf("first chunk %d/%d, want partial", first.Done, first.Total)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+snap.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	var last string
	for sc.Scan() {
		last = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	final := decodeSnapshot(t, strings.NewReader(last))
	if final.State != jobs.StateCanceled {
		t.Fatalf("stream final line state %s, want canceled (line %q)", final.State, last)
	}
}

// TestJobsResubmitHitsStore pins the content-addressed path: with a result
// store installed, resubmitting an identical trace answers 200 from the
// store without re-simulating, and the cached-jobs counter moves.
func TestJobsResubmitHitsStore(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	defer repro.SetResultStore(nil)
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{JobWorkers: 1, Store: st})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postTrace(t, ts.URL, shortTraceDoc)
	snap := decodeSnapshot(t, resp.Body)
	resp.Body.Close()
	awaitJobState(t, ts.URL, snap.ID, jobs.StateDone)

	resp = postTrace(t, ts.URL, shortTraceDoc)
	cached := decodeSnapshot(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit = %d, want 200 from store", resp.StatusCode)
	}
	if cached.State != jobs.StateDone || !cached.Cached {
		t.Fatalf("resubmit snapshot %+v, want done-from-store", cached)
	}
	if cached.Key != snap.Key {
		t.Fatalf("content key changed across resubmit: %s vs %s", cached.Key, snap.Key)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"nanoreprod_jobs_cached_total 1",
		"nanoreprod_jobs_submitted_total 2",
		`nanoreprod_jobs_finished_total{state="done"} 2`,
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestJobsSubmitErrors covers the submit-side error contract, including
// the satellite 413-vs-400 split shared with the scenarios endpoint.
func TestJobsSubmitErrors(t *testing.T) {
	srv := New(Config{JobWorkers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"invalid JSON", "{nope", http.StatusBadRequest},
		{"schema violation", `{"name":"x","dt_seconds":0.01}`, http.StatusBadRequest},
		{"oversized body", `{"pad":"` + strings.Repeat("x", 1<<20) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		resp := postTrace(t, ts.URL, tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: submit = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	if resp, err := http.Get(ts.URL + "/api/v1/jobs/nosuch"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestJobsQueueFull pins the backpressure contract: past MaxQueued the
// endpoint answers 429 with a Retry-After hint.
func TestJobsQueueFull(t *testing.T) {
	srv := New(Config{JobWorkers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var ids []string
	full := false
	for i := 0; i < 40; i++ {
		body := fmt.Sprintf(`{"name":"fill%d","dt_seconds":0.01,"generator":{"kind":"workload","intervals":80000000}}`, i)
		resp := postTrace(t, ts.URL, body)
		switch resp.StatusCode {
		case http.StatusAccepted:
			ids = append(ids, decodeSnapshot(t, resp.Body).ID)
		case http.StatusTooManyRequests:
			full = true
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Fatalf("submit %d = %d", i, resp.StatusCode)
		}
		resp.Body.Close()
		if full {
			break
		}
	}
	if !full {
		t.Fatal("queue never filled")
	}
	for _, id := range ids {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
}
