package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"nanometer/internal/device"
	"nanometer/internal/render"
	"nanometer/internal/repro"
	"nanometer/internal/result"
)

// meshEcho is a fake artifact whose body names the mesh size it was
// computed for, so a body served under the wrong key cannot pass.
func meshEcho(id string, computes *atomic.Int64) repro.Artifact {
	return repro.Artifact{ID: id, Title: id, Compute: func(_ *device.Lab, meshN int) (*result.Result, error) {
		computes.Add(1)
		r := &result.Result{}
		r.AddTable(&result.Table{Title: id, Headers: []string{"mesh-n"}, Rows: [][]string{{strconv.Itoa(meshN)}}})
		return r, nil
	}}
}

// echoText is the text body a meshEcho artifact must be served with at
// mesh-n meshN, encoded outside the daemon.
func echoText(t *testing.T, a repro.Artifact, meshN int) string {
	t.Helper()
	res, err := a.ComputeCached(repro.Options{MeshN: meshN, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := render.NewEncoding("text", render.Text{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := enc.EncodeReport(&buf, []*result.Result{res}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestBodyMemoBounded: a mesh-n scan over repro.MaxCacheEntries+k distinct
// ETags leaves the memo at its bound, the newest key is a hit, the first k
// are encoded again, and every response is the right one.
func TestBodyMemoBounded(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	var computes atomic.Int64
	a := meshEcho("scan", &computes)
	s := New(Config{Artifacts: []repro.Artifact{a}})
	defer s.Close()
	h := s.Handler()
	const k = 10
	check := func(meshN int) (hit bool) {
		t.Helper()
		hits := s.met.bodyCacheHits.Value()
		target := fmt.Sprintf("/api/v1/artifacts/scan?mesh-n=%d", meshN)
		rec := get(t, h, target, nil)
		if rec.Code != 200 {
			t.Fatalf("%s = %d", target, rec.Code)
		}
		if wantBody := echoText(t, a, meshN); rec.Body.String() != wantBody {
			t.Fatalf("%s body = %q, want %q", target, rec.Body.String(), wantBody)
		}
		return s.met.bodyCacheHits.Value() != hits
	}
	meshNs := make([]int, repro.MaxCacheEntries+k)
	for i := range meshNs {
		meshNs[i] = 5 + 2*i
		check(meshNs[i])
	}
	if kept, _ := s.bodies.Len(); kept != repro.MaxCacheEntries {
		t.Fatalf("body memo holds %d entries after a %d-key scan, want the bound %d", kept, len(meshNs), repro.MaxCacheEntries)
	}
	if !check(meshNs[len(meshNs)-1]) {
		t.Error("repeat of the scan's newest key was not a body memo hit")
	}
	for _, meshN := range meshNs[:k] {
		if check(meshN) {
			t.Errorf("repeat of evicted key mesh-n=%d was a body memo hit", meshN)
		}
	}
	if kept, _ := s.bodies.Len(); kept != repro.MaxCacheEntries {
		t.Fatalf("body memo holds %d entries, want the bound %d", kept, repro.MaxCacheEntries)
	}
}

// TestBodyMemoSkipsGate: while one compute holds every gate unit, a memo
// hit answers at once: it neither waits at nor takes from the gate.
func TestBodyMemoSkipsGate(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	var n, m atomic.Int64
	hold := make(chan struct{})
	arts := []repro.Artifact{counting("hold", &n, 0, hold), meshEcho("warm", &m)}
	s := New(Config{Artifacts: arts, GateUnits: 1, Timeout: 30 * time.Second})
	defer s.Close()
	h := s.Handler()
	if rec := get(t, h, "/api/v1/artifacts/warm", nil); rec.Code != 200 {
		t.Fatalf("fill = %d", rec.Code)
	}
	held := make(chan int, 1)
	go func() { held <- get(t, h, "/api/v1/artifacts/hold", nil).Code }()
	waitFor(t, func() bool { return n.Load() == 1 })
	hits := s.met.bodyCacheHits.Value()
	rec := get(t, h, "/api/v1/artifacts/warm", nil)
	if rec.Code != 200 || rec.Body.String() != echoText(t, arts[1], 0) {
		t.Fatalf("memo hit behind a full gate = %d %q", rec.Code, rec.Body.String())
	}
	if s.met.bodyCacheHits.Value() != hits+1 {
		t.Error("repeat GET behind a full gate was not a body memo hit")
	}
	if got := s.gate.InFlight(); got != 1 {
		t.Errorf("gate in-flight = %d during a memo hit, want 1 (the holder)", got)
	}
	if got := s.gate.Waiting(); got != 0 {
		t.Errorf("%d requests waiting at the gate, want 0", got)
	}
	close(hold)
	if code := <-held; code != http.StatusOK {
		t.Errorf("gate holder = %d, want 200", code)
	}
}
