// Package doc is the strict-document path scenarios and workload traces
// share. Both cross a trust boundary (files on disk, POST bodies), so a
// document is one JSON object under a size cap, with no unknown fields and
// nothing after it, validated before it is returned.
package doc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"regexp"
	"sync"
)

// MaxBytes bounds one document; anything larger is hostile.
const MaxBytes = 1 << 20

// nameRE admits DNS-label-ish names: bounded, metrics-safe, filename-safe.
var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]{0,47}$`)

// Parse decodes one document of the given kind ("scenario", "trace") and
// validates it. Decode errors carry the kind as prefix; validate's are
// returned as they are. Hostile input must error, never panic.
func Parse[T any](kind string, data []byte, validate func(*T) error) (*T, error) {
	if len(data) > MaxBytes {
		return nil, fmt.Errorf("%s: document is %d bytes, limit %d", kind, len(data), MaxBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	v := new(T)
	if err := dec.Decode(v); err != nil {
		return nil, fmt.Errorf("%s: %w", kind, err)
	}
	// A second document in the same stream is malformed input, not data.
	if dec.More() {
		return nil, fmt.Errorf("%s: trailing data after document", kind)
	}
	if err := validate(v); err != nil {
		return nil, err
	}
	return v, nil
}

// Load reads a document file and parses it with parse.
func Load[T any](kind, path string, parse func([]byte) (*T, error)) (*T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", kind, err)
	}
	v, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %s: %w", kind, path, err)
	}
	return v, nil
}

// Must is a parse for known-good literals (tests, guards): it panics on
// the error.
func Must[T any](v *T, err error) *T {
	if err != nil {
		panic(err)
	}
	return v
}

// Canonical is the compact JSON of a validated document; parsing it
// reproduces the same bytes. Document types hold nothing json.Marshal
// rejects, so the panic is unreachable.
func Canonical(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// Key memoizes a document's content key, the FNV-64a digest of its
// canonical bytes in 16 hex digits. A document holds one as an unexported
// field; the key is computed on the first call, so the document must not
// change after it.
type Key struct {
	once sync.Once
	key  string
}

// Of returns the key of v, the document holding k.
func (k *Key) Of(v any) string {
	k.once.Do(func() {
		h := fnv.New64a()
		h.Write(Canonical(v))
		k.key = fmt.Sprintf("%016x", h.Sum64())
	})
	return k.key
}

// CheckName rejects a document name outside nameRE.
func CheckName(kind, name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("%s: name %q must match %s", kind, name, nameRE)
	}
	return nil
}

// CheckRange reports an optional field that is set and NaN or outside
// [lo, hi]. Callers chain several with cmp.Or, which keeps the first error.
func CheckRange(field string, v *float64, lo, hi float64) error {
	if v != nil && (math.IsNaN(*v) || *v < lo || *v > hi) {
		return fmt.Errorf("%s = %g outside [%g, %g]", field, *v, lo, hi)
	}
	return nil
}
