package repro

import (
	"context"
	"io"
	"sync"
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/result"
	"nanometer/internal/runner"
)

func mustOne(tb testing.TB, id string) Artifact {
	tb.Helper()
	arts, err := Select([]string{id})
	if err != nil {
		tb.Fatal(err)
	}
	return arts[0]
}

// TestComputeCachedReturnsSameResult: repeated computes of one artifact in
// one process share a single result (pointer identity proves the model
// stack ran once), while NoCache forces a fresh computation.
func TestComputeCachedReturnsSameResult(t *testing.T) {
	ResetCache()
	a := mustOne(t, "t2")
	r1, err := a.ComputeCached(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.ComputeCached(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("second ComputeCached recomputed instead of serving the cache")
	}
	r4, err := a.ComputeCached(Options{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r4 {
		t.Fatal("NoCache must bypass the cache")
	}
}

// TestConcurrentRendersShareOneCompute: many concurrent renders of the same
// artifact race into one cache entry and all observe the same result.
func TestConcurrentRendersShareOneCompute(t *testing.T) {
	ResetCache()
	a := mustOne(t, "f2")
	const n = 16
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { done <- a.Render(io.Discard, Options{}) }()
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	r1, err := a.ComputeCached(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := a.ComputeCached(Options{})
	if r1 != r2 {
		t.Fatal("cache lost the entry after concurrent renders")
	}
}

// TestResetCacheUnderLoad: flushing the cache while readers are mid-flight
// must be race-free (the daemon's flush endpoint calls this on a live
// server). Run under -race this test fails loudly against the old
// `cache = new(sync.Map)` reassignment.
func TestResetCacheUnderLoad(t *testing.T) {
	ResetCache()
	a := mustOne(t, "t2")
	const readers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := a.ComputeCached(Options{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		ResetCache()
	}
	close(stop)
	wg.Wait()
	// The cache must still work after the churn.
	r1, err := a.ComputeCached(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2, _ := a.ComputeCached(Options{}); r1 != r2 {
		t.Fatal("cache broken after reset-under-load")
	}
}

// TestCacheEntryBound: MaxCacheEntries+k distinct compute keys leave the
// cache at its bound — the defense against hostile mesh-n scans through
// the serving layer — with the newest key a hit and the first k evicted,
// so they recompute.
func TestCacheEntryBound(t *testing.T) {
	ResetCache()
	defer ResetCache()
	calls := 0
	a := Artifact{ID: "boundprobe", Title: "bound probe", Compute: func(*device.Lab, int) (*result.Result, error) {
		calls++
		r := &result.Result{}
		r.AddTable(&result.Table{Title: "x", Headers: []string{"h"}, Rows: [][]string{{"v"}}})
		return r, nil
	}}
	const k = 3
	// Distinct valid mesh sizes (odd, ≥ 5).
	meshN := func(i int) int { return 5 + 2*i }
	for i := 0; i < MaxCacheEntries+k; i++ {
		if _, err := a.ComputeCached(Options{MeshN: meshN(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := ReadCacheStats().Entries; got != MaxCacheEntries {
		t.Fatalf("%d entries after %d keys, want the bound %d", got, MaxCacheEntries+k, MaxCacheEntries)
	}
	before := calls
	if _, err := a.ComputeCached(Options{MeshN: meshN(MaxCacheEntries + k - 1)}); err != nil {
		t.Fatal(err)
	}
	if calls != before {
		t.Error("the newest key recomputed instead of hitting")
	}
	for i := 0; i < k; i++ {
		if _, err := a.ComputeCached(Options{MeshN: meshN(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if calls != before+k {
		t.Errorf("%d computes for the %d evicted keys, want %d", calls-before, k, k)
	}
	if got := ReadCacheStats().Entries; got != MaxCacheEntries {
		t.Errorf("cache holds %d entries, want the bound %d", got, MaxCacheEntries)
	}
}

// TestPanicNotMemoized: a compute that panics once fails with the panic as
// its error, leaves no entry, and the next call recomputes; a report after
// it carries the artifact.
func TestPanicNotMemoized(t *testing.T) {
	ResetCache()
	defer ResetCache()
	calls := 0
	a := Artifact{ID: "panicprobe", Title: "panic probe", Compute: func(*device.Lab, int) (*result.Result, error) {
		calls++
		if calls == 1 {
			panic("boom")
		}
		r := &result.Result{}
		r.AddTable(&result.Table{Title: "x", Headers: []string{"h"}, Rows: [][]string{{"v"}}})
		return r, nil
	}}
	if _, err := a.ComputeCached(Options{}); err == nil || err.Error() != "panic: boom" {
		t.Fatalf("panicking compute returned %v, want the error \"panic: boom\"", err)
	}
	if got := ReadCacheStats().Entries; got != 0 {
		t.Fatalf("panicked compute left %d cache entries, want 0", got)
	}
	results, err := ComputeAllCtx(context.Background(), runner.Pool{Workers: 1}, []Artifact{a}, Options{})
	if err != nil {
		t.Fatalf("report after the panic: %v", err)
	}
	if len(results) != 1 || results[0] == nil || results[0].ID != a.ID {
		t.Fatalf("report after the panic = %v, want the artifact's result", results)
	}
	if calls != 2 {
		t.Fatalf("model ran %d times, want 2 (the panic, then the recompute)", calls)
	}
}

// TestCacheStatsCounts: hits, misses, and bypasses move as documented and
// survive a flush (they are scrape-side monotonic counters).
func TestCacheStatsCounts(t *testing.T) {
	ResetCache()
	a := mustOne(t, "t2")
	s0 := ReadCacheStats()
	if _, err := a.ComputeCached(Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ComputeCached(Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ComputeCached(Options{NoCache: true}); err != nil {
		t.Fatal(err)
	}
	s1 := ReadCacheStats()
	if s1.Misses-s0.Misses != 1 || s1.Hits-s0.Hits != 1 || s1.Bypassed-s0.Bypassed != 1 {
		t.Errorf("stats delta hits=%d misses=%d bypassed=%d, want 1/1/1",
			s1.Hits-s0.Hits, s1.Misses-s0.Misses, s1.Bypassed-s0.Bypassed)
	}
	if s1.Entries != 1 {
		t.Errorf("entries = %d, want 1", s1.Entries)
	}
	ResetCache()
	s2 := ReadCacheStats()
	if s2.Hits != s1.Hits || s2.Misses != s1.Misses {
		t.Error("flush must not reset cumulative counters")
	}
	if s2.Entries != 0 {
		t.Errorf("entries after flush = %d, want 0", s2.Entries)
	}
}

// BenchmarkArtifactCache demonstrates the warm-cache render path: the first
// render pays the full model cost, every later render of the same artifact
// serves the memoized result and only pays for encoding (~0 model work,
// visible as the allocation gap between cold and warm).
func BenchmarkArtifactCache(b *testing.B) {
	a := mustOne(b, "t2")
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ResetCache()
			if err := a.Render(io.Discard, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		ResetCache()
		if err := a.Render(io.Discard, Options{}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.Render(io.Discard, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-compute-only", func(b *testing.B) {
		ResetCache()
		if _, err := a.ComputeCached(Options{}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.ComputeCached(Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
