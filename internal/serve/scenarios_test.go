package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"nanometer/internal/obs"
	"nanometer/internal/repro"
)

func postScenario(t *testing.T, s *Server, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", target, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// decodeLines parses an NDJSON scenarios response.
func decodeLines(t *testing.T, body *bytes.Buffer) []variantLine {
	t.Helper()
	var out []variantLine
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var line variantLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestScenariosSweepFansOut: a 9-step Vdd sweep posted to the endpoint
// yields 9 typed per-variant lines in grid order, each carrying every
// selected artifact, with distinct scenario keys, and the per-scenario
// compute counter advances under the base scenario name.
func TestScenariosSweepFansOut(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	var computes atomic.Int64
	arts := []repro.Artifact{counting("sw1", &computes, 0, nil), counting("sw2", &computes, 0, nil)}
	srv := New(Config{Artifacts: arts})
	body := `{"name":"mix","sweep":{"param":"vdd","steps":9,"span_pct":20,"nodes":[70]}}`
	rec := postScenario(t, srv, "/api/v1/scenarios", body)
	if rec.Code != 200 {
		t.Fatalf("POST = %d (body: %s)", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	lines := decodeLines(t, rec.Body)
	if len(lines) != 9 {
		t.Fatalf("got %d variant lines, want 9", len(lines))
	}
	keys := map[string]bool{}
	for i, line := range lines {
		want := fmt.Sprintf("mix/vdd=%.3f", 0.8+0.4*float64(i)/8)
		if line.Scenario != want {
			t.Errorf("line %d scenario = %q, want %q (grid order is part of the contract)", i, line.Scenario, want)
		}
		if line.Error != "" {
			t.Errorf("line %d: %s", i, line.Error)
		}
		if len(line.Artifacts) != 2 {
			t.Errorf("line %d carries %d artifacts, want 2", i, len(line.Artifacts))
		}
		for _, res := range line.Artifacts {
			if res.Scenario != line.Scenario {
				t.Errorf("line %d: result %s stamped %q", i, res.ID, res.Scenario)
			}
		}
		if keys[line.Key] {
			t.Errorf("line %d reuses scenario key %s", i, line.Key)
		}
		keys[line.Key] = true
	}
	if n := computes.Load(); n != 18 {
		t.Errorf("model stack ran %d times, want 18 (9 variants × 2 artifacts)", n)
	}
	var met bytes.Buffer
	srv.met.reg.WritePrometheus(&met)
	if !strings.Contains(met.String(), `nanoreprod_scenario_computes_total{scenario="mix"} 9`) {
		t.Errorf("scenario counter missing or wrong:\n%s", grepLines(met.String(), "scenario_computes"))
	}
}

// TestScenariosRepeatHitsCache: posting the same scenario twice computes
// once — scenario identity is inside the compute-cache key.
func TestScenariosRepeatHitsCache(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	var computes atomic.Int64
	arts := []repro.Artifact{counting("rc1", &computes, 0, nil)}
	srv := New(Config{Artifacts: arts})
	body := `{"name":"again","nodes":[{"node_nm":70,"vdd_v":1.0}]}`
	for i := 0; i < 3; i++ {
		if rec := postScenario(t, srv, "/api/v1/scenarios", body); rec.Code != 200 {
			t.Fatalf("POST #%d = %d", i, rec.Code)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("3 identical scenario posts ran the model stack %d times, want 1", n)
	}
	// A different override is a different key: it must compute again.
	if rec := postScenario(t, srv, "/api/v1/scenarios", `{"name":"again","nodes":[{"node_nm":70,"vdd_v":1.1}]}`); rec.Code != 200 {
		t.Fatalf("POST variant = %d", rec.Code)
	}
	if n := computes.Load(); n != 2 {
		t.Fatalf("changed scenario reused the cache (computes = %d, want 2)", n)
	}
}

// TestScenariosValidation: the endpoint rejects malformed documents, bad
// selections, and bad mesh sizes before any compute is admitted.
func TestScenariosValidation(t *testing.T) {
	var computes atomic.Int64
	srv := New(Config{Artifacts: []repro.Artifact{counting("v1", &computes, 0, nil)}})
	for _, tc := range []struct {
		target, body string
		want         int
	}{
		{"/api/v1/scenarios", `not json`, 400},
		{"/api/v1/scenarios", `{"name":""}`, 400},
		{"/api/v1/scenarios", `{"name":"x","wat":1}`, 400},
		{"/api/v1/scenarios", `{"name":"x","nodes":[{"node_nm":70,"vdd_v":99}]}`, 400},
		{"/api/v1/scenarios", `{"name":"x","sweep":{"param":"vdd","steps":3,"span_pct":10,"nodes":[70,70]}}`, 400},
		{"/api/v1/scenarios", `{"name":"x","sweep":{"param":"vdd","steps":3,"span_pct":0.01,"nodes":[70]}}`, 400},
		{"/api/v1/scenarios?only=zz", `{"name":"x"}`, 400},
		{"/api/v1/scenarios?mesh-n=abc", `{"name":"x"}`, 400},
		{"/api/v1/scenarios?mesh-n=3", `{"name":"x"}`, 400},
		{"/api/v1/scenarios?only=v1", `{"name":"x"}`, 200},
		{"/api/v1/scenarios", `{"name":"x","expect":[{"artifact":"v1","check":"k","value":1,"rel_tol":0.1},{"artifact":"v1","check":"k","value":2,"rel_tol":0.1}]}`, 400},
	} {
		rec := postScenario(t, srv, tc.target, tc.body)
		if rec.Code != tc.want {
			t.Errorf("POST %s body=%q = %d, want %d (%s)", tc.target, tc.body, rec.Code, tc.want, rec.Body.String())
		}
	}
	// An expectation on an artifact the server does not serve would never
	// be applied: refused, naming the artifact.
	stray := `{"name":"x","expect":[{"artifact":"c77","check":"vdd_floor","value":0.44,"rel_tol":0.1}]}`
	if rec := postScenario(t, srv, "/api/v1/scenarios", stray); rec.Code != 400 || !strings.Contains(rec.Body.String(), `unknown artifact \"c77\"`) {
		t.Errorf("POST with an expectation on c77 = %d (%s), want 400 naming c77", rec.Code, rec.Body.String())
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("%d computes, want 1: only the valid request computes", n)
	}
	// Oversized bodies stop at the byte reader, not in the parser.
	big := `{"name":"x","notes":["` + strings.Repeat("a", 1<<20) + `"]}`
	if rec := postScenario(t, srv, "/api/v1/scenarios", big); rec.Code != 413 {
		t.Errorf("oversized POST = %d, want 413", rec.Code)
	}
	// The method gate holds: GET on the collection is not allowed.
	if rec := get(t, srv.Handler(), "/api/v1/scenarios", nil); rec.Code != 405 {
		t.Errorf("GET /api/v1/scenarios = %d, want 405", rec.Code)
	}
}

// brokenBody fails mid-read with an ordinary (non-byte-limit) error, the
// shape a client hangup or chunked-encoding fault takes.
type brokenBody struct{}

func (brokenBody) Read([]byte) (int, error) { return 0, errors.New("peer reset the stream") }

// TestScenariosBodyErrorMapping pins the bodyErrStatus split on both
// POST endpoints: only *http.MaxBytesError maps to 413; every other
// body-read failure is the client's 400, never a 413.
func TestScenariosBodyErrorMapping(t *testing.T) {
	srv := New(Config{Artifacts: []repro.Artifact{}, JobWorkers: 1})
	defer srv.Close()
	oversized := `{"name":"x","notes":["` + strings.Repeat("a", 1<<20) + `"]}`
	for _, tc := range []struct {
		name, target string
		body         io.Reader
		want         int
	}{
		{"scenarios oversized", "/api/v1/scenarios", strings.NewReader(oversized), 413},
		{"scenarios broken read", "/api/v1/scenarios", brokenBody{}, 400},
		{"jobs oversized", "/api/v1/jobs", strings.NewReader(oversized), 413},
		{"jobs broken read", "/api/v1/jobs", brokenBody{}, 400},
	} {
		req := httptest.NewRequest("POST", tc.target, tc.body)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s: POST = %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
	}
}

// TestScenarioLabelCardinality: the scenario computes counter folds sweep
// suffixes into the base name, and a /metrics scrape shows at most
// obs.MaxLabelValues names plus "other", whatever names clients post.
func TestScenarioLabelCardinality(t *testing.T) {
	srv := New(Config{Artifacts: []repro.Artifact{}})
	defer srv.Close()
	count := func(name string) { srv.met.scenarioComputes.With(scenarioLabel(name)).Inc() }
	count("mix/vdd=0.800")
	count("mix/vdd=1.200")
	const extra = 10
	for i := 0; i < obs.MaxLabelValues+extra; i++ {
		count(fmt.Sprintf("hostile-%03d/vdd=1.000", i))
	}
	count("mix")
	rec := get(t, srv.Handler(), "/metrics", nil)
	series := grepLines(rec.Body.String(), "nanoreprod_scenario_computes_total{") + "\n"
	if n := strings.Count(series, "\n"); n != obs.MaxLabelValues+1 {
		t.Errorf("%d scenario series, want %d (the cap plus other):\n%s", n, obs.MaxLabelValues+1, series)
	}
	// The first 63 hostile names fill the cap behind mix; the other 11
	// count under "other", and the admitted mix keeps its own series.
	for _, want := range []string{
		`nanoreprod_scenario_computes_total{scenario="mix"} 3`,
		`nanoreprod_scenario_computes_total{scenario="hostile-062"} 1`,
		fmt.Sprintf(`nanoreprod_scenario_computes_total{scenario="other"} %d`, extra+1),
	} {
		if !strings.Contains(series, want+"\n") {
			t.Errorf("scrape lacks %q:\n%s", want, series)
		}
	}
}

// TestScenariosCommittedFileOverHTTP is the end-to-end path of the CI
// smoke: the committed ext65.json posted against the real registry, one
// cheap artifact, typed results with the scenario stamped and the scenario's
// own checks applied.
func TestScenariosCommittedFileOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("computes a real artifact; run without -short")
	}
	body, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "ext65.json"))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	rec := postScenario(t, srv, "/api/v1/scenarios?only=c7", string(body))
	if rec.Code != 200 {
		t.Fatalf("POST = %d (%s)", rec.Code, rec.Body.String())
	}
	lines := decodeLines(t, rec.Body)
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1 (ext65 has no sweep)", len(lines))
	}
	if lines[0].Error != "" {
		t.Fatalf("variant error: %s", lines[0].Error)
	}
	if len(lines[0].Artifacts) != 1 || lines[0].Artifacts[0].ID != "c7" {
		t.Fatalf("unexpected artifacts in line: %+v", lines[0].Artifacts)
	}
	res := lines[0].Artifacts[0]
	if res.Scenario != "ext65" {
		t.Fatalf("result scenario = %q, want ext65", res.Scenario)
	}
	// The scenario's expectation replaced the paper checks and passed.
	checked := false
	for _, it := range res.Items {
		if it.Claim == nil {
			continue
		}
		for _, f := range it.Claim.Findings {
			if f.Check != nil {
				checked = true
				if !f.Check.Pass {
					t.Errorf("scenario check %s failed: %g vs %g", f.Key, f.Value, f.Check.Paper)
				}
			}
		}
	}
	if !checked {
		t.Error("no scenario checks present on c7 under ext65")
	}
}

// TestScenariosReportComputeError: an artifact that fails to compute
// under a scenario puts its error on the variant's line, and the
// artifacts that did compute still stream. At 0.2 V the 70 nm device
// cannot be calibrated, which fails f1 but not t1.
func TestScenariosReportComputeError(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	srv := New(Config{})
	doc := `{"name":"lowv","nodes":[{"node_nm":70,"vdd_v":0.2}]}`
	rec := postScenario(t, srv, "/api/v1/scenarios?only=f1,t1", doc)
	if rec.Code != 200 {
		t.Fatalf("POST = %d (%s)", rec.Code, rec.Body.String())
	}
	lines := decodeLines(t, rec.Body)
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}
	if !strings.Contains(lines[0].Error, "f1") || !strings.Contains(lines[0].Error, "Ion target") {
		t.Errorf("line error %q, want f1's Ion-target error", lines[0].Error)
	}
	if len(lines[0].Artifacts) != 1 || lines[0].Artifacts[0].ID != "t1" {
		t.Errorf("line artifacts %+v, want t1 alone", lines[0].Artifacts)
	}
}

// grepLines filters s to lines containing sub (test-failure readability).
func grepLines(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
