package serve

import (
	"bytes"
	"sync"

	"nanometer/internal/repro"
)

// bodyMemo maps a representation key to its encoded response body. An
// artifact's key is its strong ETag, and equal ETags mean byte-identical
// bodies (see etagFor), so a memoized body is exactly what a fresh
// compute-and-encode would produce: a warm repeat skips the singleflight,
// the admission gate, the compute goroutine and the encoder. A full report
// is keyed by "report:" plus its would-be ETag, which no artifact ETag can
// equal.
//
// The memo holds at most repro.MaxCacheEntries bodies; past the bound a
// response is encoded and served but not memoized, the compute cache's
// policy, so a hostile scan over query strings cannot grow it. Only bodies
// of successful responses are put. reset empties it (the cache-flush
// endpoint); a miss that was already encoding when the flush ran may still
// put its body afterwards, which is harmless because the bytes are exact
// for their key.
type bodyMemo struct {
	mu sync.RWMutex
	m  map[string][]byte // guarded by mu
}

func newBodyMemo() *bodyMemo { return &bodyMemo{m: make(map[string][]byte)} }

// get returns the memoized body for key. Callers must not modify it.
func (b *bodyMemo) get(key string) ([]byte, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	body, ok := b.m[key]
	return body, ok
}

// put memoizes a copy of body under key unless the memo is full. The copy
// is exactly len(body) long, so the memo holds no encoder slack.
func (b *bodyMemo) put(key string, body []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.m[key]; ok || len(b.m) >= repro.MaxCacheEntries {
		return
	}
	b.m[key] = bytes.Clone(body)
}

func (b *bodyMemo) entries() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.m)
}

func (b *bodyMemo) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m = make(map[string][]byte)
}
