package repro

import (
	"hash/fnv"
	"io"
	"strconv"
	"sync"
	"sync/atomic"

	"nanometer/internal/experiments"
	"nanometer/internal/result"
)

// cacheState is one generation of the process-wide result cache: the map of
// once-cells plus the entry count that enforces the size bound. Reset swaps
// the whole generation atomically, so readers racing a flush either finish
// against the old generation or start fresh on the new one — never observe
// a torn map.
type cacheState struct {
	m sync.Map // string key → *computeCell
	n atomic.Int64
}

// cache memoizes computed artifact results for the life of the process,
// keyed by artifact ID + compute-options hash. Entries are once-cells (the
// device.ForNode pattern): concurrent renders of the same artifact share
// one computation, and every consumer — text, JSON, CSV encoders, the HTTP
// serving layer — reads the same immutable result.
var cache atomic.Pointer[cacheState]

func init() { cache.Store(new(cacheState)) }

// MaxCacheEntries bounds the number of distinct (artifact, compute-options)
// entries the cache will hold. The registry has ~20 artifacts and a handful
// of legitimate mesh sizes, so the bound is generous — it exists because
// the serving layer feeds untrusted query strings into Options, and a scan
// over hostile mesh-n values must not grow the cache without limit. Past
// the bound, new keys compute uncached (correct, just unmemoized) and are
// counted in CacheStats.Bypassed.
const MaxCacheEntries = 256

// Cumulative cache telemetry (monotonic across flushes, as scrape-friendly
// counters must be). hits = served from an existing entry, misses = filled
// a new entry (from the result store or a fresh compute), bypassed =
// computed uncached because the bound was reached or NoCache was set.
// storeHits/storePuts track the second-level result store.
var cacheHits, cacheMisses, cacheBypassed, storeHits, storePuts atomic.Uint64

// CacheStats is a point-in-time snapshot of the compute cache counters.
type CacheStats struct {
	// Hits and Misses count ComputeCached calls served from / inserted
	// into the cache; Bypassed counts calls that computed uncached
	// (NoCache or entry bound reached). All three are cumulative for the
	// process, surviving ResetCache.
	Hits, Misses, Bypassed uint64
	// StoreHits counts results served from the second-level result store
	// instead of the solvers; StorePuts counts successful results
	// persisted into it. Both are zero when no store is configured.
	StoreHits, StorePuts uint64
	// Entries is the current number of memoized results.
	Entries int
}

// ReadCacheStats snapshots the cache counters for /metrics.
func ReadCacheStats() CacheStats {
	return CacheStats{
		Hits:      cacheHits.Load(),
		Misses:    cacheMisses.Load(),
		Bypassed:  cacheBypassed.Load(),
		StoreHits: storeHits.Load(),
		StorePuts: storePuts.Load(),
		Entries:   int(cache.Load().n.Load()),
	}
}

// ResultStore is the optional second-level result cache behind the
// in-memory once-cells: a disk-backed (and typically replica-shared)
// mapping of compute key → result. Get returns a previously stored result
// or reports a miss; Put persists a freshly computed result. Both must be
// safe for concurrent use, and both are best-effort — a store failure must
// degrade to a miss / no-op, never an error, because the compute path can
// always fall back to solving. Error results are never stored: ComputeCached
// only calls Put with a successful compute, so a transient failure can
// never be replayed out of the store.
type ResultStore interface {
	Get(artifactID, computeKey string) (*result.Result, bool)
	Put(artifactID, computeKey string, res *result.Result)
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

type computeCell struct {
	once sync.Once
	res  *result.Result
	err  error
}

// ComputeCached returns the artifact's typed result, computing it at most
// once per process for a given compute-options hash. Results are shared and
// must be treated as immutable by callers. opts.NoCache bypasses the cache
// entirely.
//
// A failed compute is NOT memoized: the dead cell is evicted (and the
// entry count released) as soon as the failure is observed, so concurrent
// callers share the one failure but the next caller recomputes. This is
// what keeps a transient error — a full disk, a cancelled dependency —
// from poisoning the key forever, and it is why the result store can trust
// that only successful results ever reach Put.
func (a Artifact) ComputeCached(opts Options) (*result.Result, error) {
	if opts.NoCache {
		cacheBypassed.Add(1)
		return a.compute(opts)
	}
	st := cache.Load()
	key := a.ID + "\x00" + opts.computeKey()
	e, ok := st.m.Load(key)
	if !ok {
		// Admit a new entry only under the bound. The check-then-store is
		// approximate under contention (a burst of distinct keys can
		// overshoot by the number of racing goroutines), which is fine:
		// the bound defends against unbounded growth, not an exact count.
		if st.n.Load() >= MaxCacheEntries {
			// The store still answers past the bound (a restart-warmed
			// result is cheaper than a solve), but bypassed computes are
			// not persisted — a hostile key scan must not churn the disk
			// store the way it cannot grow the memory cache.
			if res, found := a.storeGet(opts); found {
				return res, nil
			}
			cacheBypassed.Add(1)
			return a.compute(opts)
		}
		var loaded bool
		e, loaded = st.m.LoadOrStore(key, &computeCell{})
		if !loaded {
			st.n.Add(1)
		}
	}
	cell := e.(*computeCell)
	hit := true
	cell.once.Do(func() {
		hit = false
		cell.res, cell.err = a.fill(opts)
	})
	if hit {
		cacheHits.Add(1)
	} else {
		cacheMisses.Add(1)
		if cell.err != nil {
			// Evict the dead cell so retries recompute. Only the goroutine
			// that ran the fill evicts, and CompareAndDelete refuses if the
			// generation was flushed meanwhile, so the count moves exactly
			// once per admitted-then-failed entry.
			if st.m.CompareAndDelete(key, e) {
				st.n.Add(-1)
			}
		}
	}
	return cell.res, cell.err
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
	s.Put(a.ID, opts.computeKey(), res)
	storePuts.Add(1)
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
// The nil scenario contributes nothing, so every pre-scenario cache key —
// and with it every ETag and result-store file — is unchanged. A non-nil
// scenario folds in the digest of its full canonical content: two
// scenarios differing in any override get distinct keys, and the same
// scenario document hashes identically across replicas.
func (o Options) computeKey() string {
	h := fnv.New64a()
	io.WriteString(h, "compute-v1")
	io.WriteString(h, "\x00mesh-n=")
	io.WriteString(h, strconv.Itoa(experiments.MeshN(o.MeshN)))
	if o.Scenario != nil {
		io.WriteString(h, "\x00scenario=")
		io.WriteString(h, o.Scenario.Key())
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// CacheKey exposes the compute-options hash. The serving layer folds it
// into strong ETags: two requests whose options hash equal are guaranteed
// the same cache entry, hence byte-identical artifact data. The result
// files use the same key, which is what makes "equal ETag ⇒ equal bytes"
// hold across replicas sharing a store too.
func (o Options) CacheKey() string { return o.computeKey() }

// ResetCache atomically drops every memoized result. Safe to call while
// computes are in flight: a reader that already holds the old generation
// finishes against it (and its result simply becomes unreachable); new
// calls start on the empty generation. The daemon's cache-flush endpoint
// and benchmarks use this; cumulative hit/miss counters are preserved, and
// the result store is untouched (it exists to survive exactly this).
func ResetCache() { cache.Store(new(cacheState)) }
