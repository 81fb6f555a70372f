package serve

import (
	"bytes"
	"sync"

	"nanometer/internal/repro"
)

// bodyRecord is one response body under its key. It is in flight until
// finish publishes body or err and closes done; it is then either kept in
// the table or removed from it.
type bodyRecord struct {
	done chan struct{} // closed by finish; body and err are final after it
	body []byte
	err  error
}

// ready returns the body of a record that has already finished
// successfully. A record still in flight, or one that failed, reports false.
func (rec *bodyRecord) ready() ([]byte, bool) {
	select {
	case <-rec.done:
		return rec.body, rec.err == nil
	default:
		return nil, false
	}
}

// bodyTable maps a body key to its record: an artifact's strong ETag, or
// "report:" plus a report's would-be ETag, which no quoted ETag can equal.
// Equal keys mean byte-identical bodies (see etagFor), so one map both
// collapses identical requests in flight (one leader computes and encodes,
// the others wait on its record) and answers repeats after they finished,
// with exactly the bytes a fresh compute-and-encode would produce.
//
// A failed record leaves the table, so the next request leads afresh. A
// successful one stays only while fewer than repro.MaxCacheEntries records
// are kept, the compute cache's bound, so a scan over query strings cannot
// grow the table. reset (the flush endpoint) empties it: a record in
// flight at the flush still finishes for its waiters but is not kept.
type bodyTable struct {
	mu sync.Mutex
	m  map[string]*bodyRecord // guarded by mu
	// kept counts the finished records in m.
	// guarded by mu
	kept int
}

func newBodyTable() *bodyTable { return &bodyTable{m: make(map[string]*bodyRecord)} }

// join returns the record for key, creating it (leader=true) when the
// table has none.
func (t *bodyTable) join(key string) (rec *bodyRecord, leader bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rec, ok := t.m[key]; ok {
		return rec, false
	}
	rec = &bodyRecord{done: make(chan struct{})}
	t.m[key] = rec
	return rec, true
}

// finish publishes rec's outcome and closes done. A kept body is copied to
// its exact length, so the table holds no encoder slack. A failed record
// leaves the table before done closes, so no later join can find it.
func (t *bodyTable) finish(key string, rec *bodyRecord, body []byte, err error) {
	t.settle(key, rec, body, err)
	close(rec.done)
}

// settle keeps or drops rec under the table lock and publishes its outcome.
func (t *bodyTable) settle(key string, rec *bodyRecord, body []byte, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	current := t.m[key] == rec
	if current && err == nil && t.kept < repro.MaxCacheEntries {
		body = bytes.Clone(body)
		t.kept++
	} else if current {
		delete(t.m, key)
	}
	rec.body, rec.err = body, err
}

// entries returns the number of kept bodies.
func (t *bodyTable) entries() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.kept
}

func (t *bodyTable) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m = make(map[string]*bodyRecord)
	t.kept = 0
}
