package repro

import (
	"strconv"
	"sync/atomic"

	"nanometer/internal/experiments"
	"nanometer/internal/memo"
	"nanometer/internal/result"
)

// cache memoizes computed artifact results for the life of the process,
// keyed by artifact ID + compute-options hash: concurrent renders of the
// same artifact share one computation, and every consumer — text, JSON,
// CSV encoders, the HTTP serving layer — reads the same immutable result.
var cache = memo.New[*result.Result](MaxCacheEntries)

// MaxCacheEntries bounds the number of distinct (artifact, compute-options)
// entries the cache will hold. The registry has ~20 artifacts and a handful
// of legitimate mesh sizes, so the bound is generous — it exists because
// the serving layer feeds untrusted query strings into Options, and a scan
// over hostile mesh-n values must not grow the cache without limit. Past
// the bound, each new entry evicts the oldest one.
const MaxCacheEntries = 256

// Cumulative cache telemetry (monotonic across flushes, as scrape-friendly
// counters must be). hits = served from an existing entry, misses = filled
// a new entry (from the result store or a fresh compute), bypassed =
// computed uncached because NoCache was set.
// storeHits/storePuts/storePutErrors track the second-level result store.
var cacheHits, cacheMisses, cacheBypassed, storeHits, storePuts, storePutErrors atomic.Uint64

// CacheStats is a point-in-time snapshot of the compute cache counters.
type CacheStats struct {
	// Hits and Misses count ComputeCached calls served from / inserted
	// into the cache; Bypassed counts calls that computed uncached
	// (NoCache). All three are cumulative for the process, surviving
	// ResetCache.
	Hits, Misses, Bypassed uint64
	// StoreHits counts results served from the second-level result store
	// instead of the solvers; StorePuts counts results whose write landed
	// in it, StorePutErrors those whose write failed. All three are zero
	// when no store is configured.
	StoreHits, StorePuts, StorePutErrors uint64
	// Entries is the current number of memoized results.
	Entries int
}

// ReadCacheStats snapshots the cache counters for /metrics.
func ReadCacheStats() CacheStats {
	kept, _ := cache.Len()
	return CacheStats{
		Hits:           cacheHits.Load(),
		Misses:         cacheMisses.Load(),
		Bypassed:       cacheBypassed.Load(),
		StoreHits:      storeHits.Load(),
		StorePuts:      storePuts.Load(),
		StorePutErrors: storePutErrors.Load(),
		Entries:        kept,
	}
}

// ResultStore is the optional second-level result cache behind the
// in-memory cache: a disk-backed (and typically replica-shared)
// mapping of compute key → result. Get returns a previously stored result
// or reports a miss; Put persists a freshly computed result. Both must be
// safe for concurrent use, and both are best-effort — a store failure must
// degrade to a miss / no-op, never an error, because the compute path can
// always fall back to solving. Put reports whether the result landed, so
// only landed writes are counted. Error results are never stored:
// ComputeCached only calls Put with a successful compute, so a transient
// failure can never be replayed out of the store.
type ResultStore interface {
	Get(artifactID, computeKey string) (*result.Result, bool)
	Put(artifactID, computeKey string, res *result.Result) bool
}

// storeBox wraps the configured ResultStore so the atomic pointer swap
// stays type-stable regardless of the concrete store implementation.
type storeBox struct{ s ResultStore }

var resultStore atomic.Pointer[storeBox]

// SetResultStore installs (or, with nil, removes) the process-wide
// second-level result store consulted by ComputeCached on a memory miss.
func SetResultStore(s ResultStore) {
	if s == nil {
		resultStore.Store(nil)
		return
	}
	resultStore.Store(&storeBox{s: s})
}

func loadResultStore() ResultStore {
	b := resultStore.Load()
	if b == nil {
		return nil
	}
	return b.s
}

// ComputeCached returns the artifact's typed result, computing it at most
// once per process for a given compute-options hash while its entry is
// kept. Results are shared and must be treated as immutable by callers.
// opts.NoCache bypasses the cache entirely.
//
// A failed compute is NOT memoized: its entry leaves the cache before the
// callers sharing it see the failure, so the next caller recomputes. A
// compute that panics fails with the error "panic: <value>". This is what
// keeps a transient error — a full disk, a cancelled dependency — from
// poisoning the key forever, and it is why the result store can trust
// that only successful results ever reach Put.
func (a Artifact) ComputeCached(opts Options) (*result.Result, error) {
	if opts.NoCache {
		cacheBypassed.Add(1)
		return a.compute(opts)
	}
	c, leader := cache.Do(a.ID+"\x00"+opts.computeKey(), func() (*result.Result, error) { return a.fill(opts) })
	if leader {
		cacheMisses.Add(1)
	} else {
		cacheHits.Add(1)
	}
	return c.Result()
}

// fill produces the value of a fresh cache cell: the result store first
// (a restarted or sibling replica answers without solving), the models
// otherwise, persisting only successful computes.
func (a Artifact) fill(opts Options) (*result.Result, error) {
	if res, found := a.storeGet(opts); found {
		return res, nil
	}
	res, err := a.compute(opts)
	if err != nil {
		return nil, err
	}
	a.storePut(opts, res)
	return res, nil
}

func (a Artifact) storeGet(opts Options) (*result.Result, bool) {
	s := loadResultStore()
	if s == nil {
		return nil, false
	}
	res, ok := s.Get(a.ID, opts.computeKey())
	if !ok {
		return nil, false
	}
	storeHits.Add(1)
	return res, true
}

func (a Artifact) storePut(opts Options, res *result.Result) {
	s := loadResultStore()
	if s == nil {
		return
	}
	if s.Put(a.ID, opts.computeKey(), res) {
		storePuts.Add(1)
	} else {
		storePutErrors.Add(1)
	}
}

// computeKey hashes the options that reach the models. CSVDir, Plot,
// Verbose, and NoCache only affect encoding (or cache policy) and are
// deliberately excluded, so every encoding of one artifact shares a
// single cache entry. Any compute-side option (today: MeshN and
// Scenario) must be written into this hash or the cache will serve stale
// results — TestComputeKeyCoversOptions enforces the classification by
// reflection, so adding a field to Options without teaching it to that
// test fails the suite. MeshN enters as the dimension C8 actually solves
// (experiments.MeshN), so mesh-n 0, 40 and 41 share one entry.
//
// The version prefix moves whenever a model change alters a stored
// result's bits, so a store written by an older binary reads as misses
// instead of serving the old bits. v2: c8's mesh drop is the unit drop
// scaled by |I|·R, which moved its pessimistic ratio in the last digits.
// v3: the unit drop is a closed-form spectral sum instead of an iterative
// solve, which moved it again in the last digits.
//
// The nil scenario folds in the digest of the paper table, whose checks
// it carries, so editing a quoted value invalidates stored base results. A
// non-nil scenario folds in the digest of its full canonical content,
// expectations included: two scenarios differing in any override get
// distinct keys, and the same scenario document hashes identically across
// replicas.
func (o Options) computeKey() string { return o.keyWith(baseKeyPrefix) }

// keyVersion opens every compute key; baseKeyPrefix joins it with the
// paper table's digest for the base roadmap.
const keyVersion = "compute-v3"

var baseKeyPrefix = keyVersion + "\x00paper=" + paperKey

// keyWith is computeKey with the base roadmap's key prefix as a parameter.
// It hashes inline with FNV-1a, the same digest hash/fnv's New64a gives, so
// the key costs one allocation: the returned string.
func (o Options) keyWith(basePrefix string) string {
	h := uint64(fnvOffset64)
	if o.Scenario == nil {
		h = fnv1a(h, basePrefix)
	} else {
		h = fnv1a(h, keyVersion)
	}
	h = fnv1a(h, "\x00mesh-n=")
	var buf [20]byte
	h = fnv1a(h, strconv.AppendInt(buf[:0], int64(experiments.MeshN(o.MeshN)), 10))
	if o.Scenario != nil {
		h = fnv1a(h, "\x00scenario=")
		h = fnv1a(h, o.Scenario.Key())
	}
	return string(strconv.AppendUint(buf[:0], h, 16))
}

// The 64-bit FNV-1a parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a folds the bytes of s into the FNV-1a state h.
func fnv1a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// CacheKey exposes the compute-options hash. The serving layer folds it
// into strong ETags: two requests whose options hash equal are guaranteed
// the same cache entry, hence byte-identical artifact data. The result
// files use the same key, which is what makes "equal ETag ⇒ equal bytes"
// hold across replicas sharing a store too.
func (o Options) CacheKey() string { return o.computeKey() }

// ResetCache drops every memoized result. Safe to call while computes are
// in flight: a compute that started before the reset still answers the
// callers sharing it, but its result is not kept; new calls start on the
// empty cache. The daemon's cache-flush endpoint and benchmarks use this;
// cumulative hit/miss counters are preserved, and the result store is
// untouched (it exists to survive exactly this).
func ResetCache() { cache.Reset() }
