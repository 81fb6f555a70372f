// Package store is the disk-backed, content-addressed result store behind
// the in-memory compute cache: compute key → encoded JSON result, one file
// per key. It is what lets a restarted daemon (or a sibling replica
// pointed at the same directory) serve its first request without running a
// solver — the result types round-trip through encoding/json losslessly,
// so a store-served artifact encodes byte-identical to a freshly computed
// one.
//
// The format is deliberately boring: a one-line header carrying a format
// tag, an FNV-64a checksum, and the payload length, followed by the
// compact JSON of the result. Writes go to a temp file in the same
// directory and are renamed into place, so readers never observe a torn
// file; reads verify the checksum and length and treat any mismatch as a
// miss, deleting the corrupt file so it cannot fail again. Entry and byte
// bounds are enforced after each write by evicting the oldest files
// (modification time, then name), which makes the store safe to leave
// running forever.
//
// Every operation is best-effort by contract (repro.ResultStore): a
// failure degrades to a miss or a dropped write, never an error — the
// caller can always solve locally. The caller counts hits, puts and put
// errors from the results; the store counts only what the caller cannot
// see, its evictions and corrupt files.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"nanometer/internal/result"
)

// header tags the on-disk format; bump it when the layout changes so old
// files read as corrupt (= miss + delete) instead of misparsing.
const header = "nanostore1"

// Defaults for the bounds when Config leaves them zero.
const (
	DefaultMaxEntries = 4096
	DefaultMaxBytes   = 256 << 20
)

// Config parameterizes Open.
type Config struct {
	// Dir is the store directory, created if absent.
	Dir string
	// MaxEntries bounds the number of result files (≤0 selects
	// DefaultMaxEntries). Oldest entries are evicted past the bound.
	MaxEntries int
	// MaxBytes bounds the total payload bytes on disk (≤0 selects
	// DefaultMaxBytes).
	MaxBytes int64
}

// Store is a disk-backed result store. Safe for concurrent use by any
// number of goroutines and — because writes are atomic renames and reads
// are checksummed — by any number of replica processes sharing Dir.
type Store struct {
	dir        string
	maxEntries int
	maxBytes   int64

	// mu serializes writes and evictions within this process; readers
	// don't take it (rename atomicity protects them).
	mu sync.Mutex

	evictions, corrupt atomic.Uint64
}

// Counters are one store handle's event counts. The directory's
// footprint, shared across replicas, is Footprint's.
type Counters struct {
	// Evictions counts files removed by the bounds; Corrupt counts files
	// dropped on checksum/decode failure.
	Evictions, Corrupt uint64
}

// Open creates (if needed) and validates the store directory.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: cfg.Dir, maxEntries: cfg.MaxEntries, maxBytes: cfg.MaxBytes}
	if s.maxEntries <= 0 {
		s.maxEntries = DefaultMaxEntries
	}
	if s.maxBytes <= 0 {
		s.maxBytes = DefaultMaxBytes
	}
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// fileName maps (artifact, compute key) onto a flat, filesystem-safe name.
// IDs and keys are lowercase alphanumerics today; anything else is defanged
// by hashing so a hostile ID can never escape the directory.
func fileName(artifactID, computeKey string) string {
	safe := func(v string) string {
		for _, r := range v {
			if (r < 'a' || r > 'z') && (r < 'A' || r > 'Z') && (r < '0' || r > '9') {
				h := fnv.New64a()
				h.Write([]byte(v))
				return strconv.FormatUint(h.Sum64(), 16)
			}
		}
		return v
	}
	return safe(artifactID) + "-" + safe(computeKey) + ".json"
}

// Get returns the stored result for the key, or a miss. Corrupt or
// unreadable files count as misses and are removed.
func (s *Store) Get(artifactID, computeKey string) (*result.Result, bool) {
	path := filepath.Join(s.dir, fileName(artifactID, computeKey))
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	res, err := decode(raw, artifactID)
	if err != nil {
		s.corrupt.Add(1)
		os.Remove(path)
		return nil, false
	}
	return res, true
}

// Put persists a result under the key: temp file, fsync-free write, atomic
// rename, then bound enforcement. It reports whether the file landed;
// failures are otherwise swallowed.
func (s *Store) Put(artifactID, computeKey string, res *result.Result) bool {
	payload, err := json.Marshal(res)
	if err != nil {
		return false
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s %s %d\n", header, checksum(payload), len(payload))
	buf.Write(payload)

	s.mu.Lock()
	defer s.mu.Unlock()
	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return false
	}
	_, werr := tmp.Write(buf.Bytes())
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return false
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, fileName(artifactID, computeKey))); err != nil {
		os.Remove(tmp.Name())
		return false
	}
	s.enforceBoundsLocked()
	return true
}

func checksum(payload []byte) string {
	h := fnv.New64a()
	h.Write(payload)
	return strconv.FormatUint(h.Sum64(), 16)
}

// decode parses and verifies one store file.
func decode(raw []byte, artifactID string) (*result.Result, error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("store: missing header line")
	}
	fields := strings.Fields(string(raw[:nl]))
	if len(fields) != 3 || fields[0] != header {
		return nil, fmt.Errorf("store: bad header")
	}
	payload := raw[nl+1:]
	n, err := strconv.Atoi(fields[2])
	if err != nil || n != len(payload) {
		return nil, fmt.Errorf("store: length mismatch")
	}
	if fields[1] != checksum(payload) {
		return nil, fmt.Errorf("store: checksum mismatch")
	}
	// Strict decode: a file written by a future schema (extra fields) or
	// carrying trailing bytes is a corrupt entry — miss and recompute —
	// never a silently truncated result.
	var res result.Result
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("store: trailing data after result")
	}
	if err := res.Validate(); err != nil {
		return nil, err
	}
	if res.ID != artifactID {
		return nil, fmt.Errorf("store: result ID %q under key for %q", res.ID, artifactID)
	}
	return &res, nil
}

// entry is one result file during a bounds scan.
type entry struct {
	name  string
	size  int64
	mtime int64 // ns; tie-broken by name for determinism
}

// scan lists the store's result files (temp files excluded).
func (s *Store) scan() ([]entry, int64) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, 0
	}
	var entries []entry
	var total int64
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		entries = append(entries, entry{name: de.Name(), size: info.Size(), mtime: info.ModTime().UnixNano()})
		total += info.Size()
	}
	return entries, total
}

// enforceBoundsLocked evicts oldest-first until the directory fits the
// entry and byte bounds. Caller holds mu.
func (s *Store) enforceBoundsLocked() {
	entries, total := s.scan()
	if len(entries) <= s.maxEntries && total <= s.maxBytes {
		return
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].mtime != entries[j].mtime {
			return entries[i].mtime < entries[j].mtime
		}
		return entries[i].name < entries[j].name
	})
	for i := 0; i < len(entries); i++ {
		if len(entries)-i <= s.maxEntries && total <= s.maxBytes {
			break
		}
		if os.Remove(filepath.Join(s.dir, entries[i].name)) == nil {
			s.evictions.Add(1)
		}
		total -= entries[i].size
	}
}

// Counters reads the handle's counters without touching the directory.
func (s *Store) Counters() Counters {
	return Counters{Evictions: s.evictions.Load(), Corrupt: s.corrupt.Load()}
}

// Footprint scans the directory once and returns its result-file count
// and total bytes. Replicas share the directory, so both can move without
// this handle doing anything.
func (s *Store) Footprint() (entries int, bytes int64) {
	list, total := s.scan()
	return len(list), total
}
