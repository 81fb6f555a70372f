package repro

import (
	"io"
	"sync"
	"testing"

	"nanometer/internal/device"
	"nanometer/internal/result"
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
// artifact race into the once-cell and all observe the same result.
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

// TestCacheEntryBound: distinct compute keys past MaxCacheEntries compute
// uncached instead of growing the cache — the defense against hostile
// mesh-n scans through the serving layer.
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
	// Fill the cache with distinct valid mesh sizes (odd, ≥ 5).
	for i := 0; i < MaxCacheEntries; i++ {
		if _, err := a.ComputeCached(Options{MeshN: 5 + 2*i}); err != nil {
			t.Fatal(err)
		}
	}
	st := ReadCacheStats()
	if st.Entries != MaxCacheEntries {
		t.Fatalf("expected %d entries, got %d", MaxCacheEntries, st.Entries)
	}
	// The next distinct key must bypass, not grow the cache...
	before := calls
	n := 5 + 2*MaxCacheEntries
	for i := 0; i < 3; i++ {
		if _, err := a.ComputeCached(Options{MeshN: n}); err != nil {
			t.Fatal(err)
		}
	}
	if calls != before+3 {
		t.Errorf("bypassed keys should recompute every call: %d computes for 3 calls", calls-before)
	}
	if got := ReadCacheStats().Entries; got != MaxCacheEntries {
		t.Errorf("cache grew past the bound: %d entries", got)
	}
	// ...while existing entries still hit.
	before = calls
	if _, err := a.ComputeCached(Options{MeshN: 5}); err != nil {
		t.Fatal(err)
	}
	if calls != before {
		t.Error("existing entry recomputed while cache full")
	}
	// Flushing restores admission.
	ResetCache()
	if _, err := a.ComputeCached(Options{MeshN: n}); err != nil {
		t.Fatal(err)
	}
	if got := ReadCacheStats().Entries; got != 1 {
		t.Errorf("after flush expected 1 entry, got %d", got)
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
