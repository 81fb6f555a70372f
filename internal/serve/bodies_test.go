package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
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

// TestBodyMemoBounded: a mesh-n scan over more distinct ETags than
// repro.MaxCacheEntries leaves the memo at its bound, and every response —
// memoized, past the bound, or repeated — is the right one.
func TestBodyMemoBounded(t *testing.T) {
	repro.ResetCache()
	defer repro.ResetCache()
	var computes atomic.Int64
	a := meshEcho("scan", &computes)
	s := New(Config{Artifacts: []repro.Artifact{a}})
	defer s.Close()
	h := s.Handler()
	const extra = 10
	check := func(meshN int) {
		t.Helper()
		target := fmt.Sprintf("/api/v1/artifacts/scan?mesh-n=%d", meshN)
		rec := get(t, h, target, nil)
		if rec.Code != 200 {
			t.Fatalf("%s = %d", target, rec.Code)
		}
		if wantBody := echoText(t, a, meshN); rec.Body.String() != wantBody {
			t.Fatalf("%s body = %q, want %q", target, rec.Body.String(), wantBody)
		}
	}
	meshNs := make([]int, repro.MaxCacheEntries+extra)
	for i := range meshNs {
		meshNs[i] = 5 + 2*i
		check(meshNs[i])
	}
	if got := s.bodies.entries(); got != repro.MaxCacheEntries {
		t.Fatalf("body memo holds %d entries after a %d-key scan, want the bound %d", got, len(meshNs), repro.MaxCacheEntries)
	}
	// A repeat of the scan's first key is a hit, and a repeat of a key
	// past the bound is encoded again; both stay correct.
	hits := s.met.bodyCacheHits.Value()
	check(meshNs[0])
	if s.met.bodyCacheHits.Value() != hits+1 {
		t.Error("repeat of a memoized key was not a body memo hit")
	}
	check(meshNs[len(meshNs)-1])
	if s.met.bodyCacheHits.Value() != hits+1 {
		t.Error("repeat of a key past the bound was a body memo hit")
	}
	if got := s.bodies.entries(); got != repro.MaxCacheEntries {
		t.Fatalf("body memo grew to %d entries past its bound", got)
	}
}

// TestBodyTableFlushRule: a record in flight when the table is reset still
// finishes for its waiters but is not kept, and the next join leads afresh.
// A failed record is not kept either.
func TestBodyTableFlushRule(t *testing.T) {
	tb := newBodyTable()
	rec, leader := tb.join("k")
	if !leader {
		t.Fatal("first join did not lead")
	}
	if _, leader := tb.join("k"); leader {
		t.Fatal("a second join led while the first record was in flight")
	}
	tb.reset()
	tb.finish("k", rec, []byte("body"), nil)
	if body, ok := rec.ready(); !ok || string(body) != "body" {
		t.Fatalf("waiters of a record finished after a flush got %q, %v", body, ok)
	}
	if n := tb.entries(); n != 0 {
		t.Fatalf("%d bodies kept after a flush, want 0", n)
	}
	rec, leader = tb.join("k")
	if !leader {
		t.Fatal("join after the flush did not lead afresh")
	}
	tb.finish("k", rec, nil, errors.New("boom"))
	if n := tb.entries(); n != 0 {
		t.Fatalf("a failed record was kept (%d entries)", n)
	}
	if _, leader := tb.join("k"); !leader {
		t.Fatal("join after a failure did not lead afresh")
	}
}

// TestBodyTableRacesReset runs joins and finishes, some failing, against
// repeated resets under -race. Afterwards the kept count equals the
// records the table still holds, each finished successfully.
func TestBodyTableRacesReset(t *testing.T) {
	tb := newBodyTable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%16)
				rec, leader := tb.join(key)
				if !leader {
					<-rec.done
					continue
				}
				var err error
				if i%3 == 0 {
					err = errors.New("boom")
				}
				tb.finish(key, rec, []byte(key), err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tb.reset()
			runtime.Gosched()
		}
	}()
	wg.Wait()
	kept := 0
	for key, rec := range tb.m {
		if body, ok := rec.ready(); !ok || string(body) != key {
			t.Errorf("record %s: body %q, ok %v after every finish", key, body, ok)
		}
		kept++
	}
	if n := tb.entries(); n != kept {
		t.Fatalf("entries() = %d, the table keeps %d records", n, kept)
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
