package repro

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nanometer/internal/result"
)

// memStore is an in-memory ResultStore for tests.
type memStore struct {
	mu   sync.Mutex
	m    map[string]*result.Result
	puts int
}

func newMemStore() *memStore { return &memStore{m: make(map[string]*result.Result)} }

func (s *memStore) Get(artifactID, computeKey string) (*result.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.m[artifactID+"/"+computeKey]
	return res, ok
}

func (s *memStore) Put(artifactID, computeKey string, res *result.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[artifactID+"/"+computeKey] = res
	s.puts++
}

// flaky builds an artifact that fails its first failN computes and then
// succeeds, counting every compute.
func flaky(id string, failN int, computes *atomic.Int64) Artifact {
	return Artifact{ID: id, Title: "flaky " + id, Compute: func(Options) (*result.Result, error) {
		n := computes.Add(1)
		if n <= int64(failN) {
			return nil, errors.New("transient failure")
		}
		r := &result.Result{}
		r.AddTable(&result.Table{Title: id, Headers: []string{"h"}, Rows: [][]string{{"v"}}})
		return r, nil
	}}
}

// TestErrorNotMemoized is the error-poisoning regression: a failed compute
// must not be served from the cache forever. The first call fails, its
// dead cell is evicted (entry count released), and the second call
// recomputes and succeeds — after which the success IS memoized.
func TestErrorNotMemoized(t *testing.T) {
	ResetCache()
	defer ResetCache()
	var computes atomic.Int64
	a := flaky("poison", 1, &computes)
	if _, err := a.ComputeCached(Options{}); err == nil {
		t.Fatal("first compute should fail")
	}
	if got := ReadCacheStats().Entries; got != 0 {
		t.Fatalf("failed compute left %d cache entries, want 0", got)
	}
	r2, err := a.ComputeCached(Options{})
	if err != nil {
		t.Fatalf("second call must recompute past the transient failure: %v", err)
	}
	r3, err := a.ComputeCached(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r3 {
		t.Fatal("successful result was not memoized after the error eviction")
	}
	if n := computes.Load(); n != 2 {
		t.Fatalf("model ran %d times, want 2 (one failure, one success)", n)
	}
	if got := ReadCacheStats().Entries; got != 1 {
		t.Fatalf("entries = %d, want 1", got)
	}
}

// TestConcurrentFailuresKeepExactEntryCount: concurrent callers against a
// failing compute all observe an error, and however the race between
// joining the leader's cell and creating a fresh one falls out, every
// admitted-then-failed cell is evicted exactly once — the entry count ends
// at zero (a double eviction would drive it negative and poison the bound).
func TestConcurrentFailuresKeepExactEntryCount(t *testing.T) {
	ResetCache()
	defer ResetCache()
	var computes atomic.Int64
	blocker := make(chan struct{})
	a := Artifact{ID: "sharedfail", Title: "shared fail", Compute: func(Options) (*result.Result, error) {
		computes.Add(1)
		<-blocker
		return nil, errors.New("boom")
	}}
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := a.ComputeCached(Options{})
			errs <- err
		}()
	}
	// Hold the leader in flight long enough for followers to pile onto its
	// cell (best-effort; the invariants below hold either way).
	for computes.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(blocker)
	for i := 0; i < n; i++ {
		if err := <-errs; err == nil {
			t.Fatal("caller observed success from a failing compute")
		}
	}
	if got := ReadCacheStats().Entries; got != 0 {
		t.Fatalf("entries = %d after concurrent failures, want 0", got)
	}
	if c := computes.Load(); c < 1 || c > n {
		t.Fatalf("failing compute ran %d times for %d callers", c, n)
	}
}

// TestStoreLayering: a fresh process (simulated by ResetCache) fills from
// the result store without computing; successful computes are persisted;
// failed computes never reach the store.
func TestStoreLayering(t *testing.T) {
	ResetCache()
	ms := newMemStore()
	SetResultStore(ms)
	defer SetResultStore(nil)
	defer ResetCache()

	var computes atomic.Int64
	a := flaky("storelayer", 1, &computes)
	s0 := ReadCacheStats()

	// Failed compute: nothing persisted.
	if _, err := a.ComputeCached(Options{}); err == nil {
		t.Fatal("first compute should fail")
	}
	if ms.puts != 0 {
		t.Fatalf("error result reached the store (%d puts)", ms.puts)
	}
	// Successful compute: persisted.
	r1, err := a.ComputeCached(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ms.puts != 1 {
		t.Fatalf("store puts = %d, want 1", ms.puts)
	}
	// Restart: memory gone, store answers, models stay cold.
	ResetCache()
	r2, err := a.ComputeCached(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 2 {
		t.Fatalf("model ran %d times, want 2 (restart must hit the store)", computes.Load())
	}
	if r1.Items[0].Table.Title != r2.Items[0].Table.Title {
		t.Fatal("store round-trip changed the result")
	}
	s1 := ReadCacheStats()
	if s1.StoreHits-s0.StoreHits != 1 || s1.StorePuts-s0.StorePuts != 1 {
		t.Fatalf("store stats delta hits=%d puts=%d, want 1/1",
			s1.StoreHits-s0.StoreHits, s1.StorePuts-s0.StorePuts)
	}
	// NoCache computes are not persisted (policy: only cache fills are).
	putsBefore := ms.puts
	if _, err := a.ComputeCached(Options{NoCache: true}); err != nil {
		t.Fatal(err)
	}
	if ms.puts != putsBefore {
		t.Fatal("NoCache compute must not write the store")
	}
}
