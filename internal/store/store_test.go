package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"nanometer/internal/result"
)

func sample(id string) *result.Result {
	r := &result.Result{ID: id, Title: "sample " + id}
	r.AddTable(&result.Table{Title: "t", Headers: []string{"h1", "h2"}, Rows: [][]string{{"a", "b"}, {"c", "d"}}})
	r.AddClaim(&result.Claim{Findings: []result.Finding{{Key: "x", Value: 1.5, Unit: "ns"}}})
	return r
}

// frame wraps a payload in a valid store header (correct checksum and
// length), so damage tests can target the payload contents specifically.
func frame(payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(header + " " + checksum(payload) + " ")
	buf.WriteString(strconv.Itoa(len(payload)) + "\n")
	buf.Write(payload)
	return buf.Bytes()
}

func open(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRoundTrip: Put then Get returns a result whose JSON encoding is
// byte-identical to the original — the property the serving layer's
// "equal ETag ⇒ equal bytes across replicas" guarantee rests on.
func TestRoundTrip(t *testing.T) {
	s := open(t, Config{})
	want := sample("t2")
	if !s.Put("t2", "cafe", want) {
		t.Fatal("Put did not land")
	}
	got, ok := s.Get("t2", "cafe")
	if !ok {
		t.Fatal("Get missed a just-Put key")
	}
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if !bytes.Equal(wj, gj) {
		t.Fatalf("round-trip changed the result:\n want %s\n got  %s", wj, gj)
	}
	// A different compute key is a different entry.
	if _, ok := s.Get("t2", "beef"); ok {
		t.Fatal("Get hit under the wrong compute key")
	}
	if entries, _ := s.Footprint(); entries != 1 {
		t.Fatalf("entries = %d, want 1", entries)
	}
}

// TestCorruptFallThrough: a damaged store file reads as a miss, is counted
// as corrupt, and is deleted so it cannot fail again.
func TestCorruptFallThrough(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"flipped-payload-byte": func(b []byte) []byte { b[len(b)-2] ^= 0x40; return b },
		"wrong-header":         func(b []byte) []byte { return append([]byte("nanostoreX junk\n"), b...) },
		"truncated":            func(b []byte) []byte { return b[:len(b)/2] },
		"wrong-artifact-id": func(b []byte) []byte {
			// A validly checksummed file holding another artifact's result
			// (e.g. a hash collision or a tampered rename) must not be
			// served under this key.
			other, _ := json.Marshal(sample("zz"))
			return frame(other)
		},
		"unknown-field": func(b []byte) []byte {
			// A validly checksummed file written by a future schema: the
			// strict decoder must treat the unknown field as corruption
			// (miss and recompute), not silently drop it.
			payload, _ := json.Marshal(sample("t2"))
			payload = append([]byte(`{"future_field":1,`), payload[1:]...)
			return frame(payload)
		},
		"figure-without-series": func(b []byte) []byte {
			// Structurally invalid for the encoders (the CSV figure writer
			// indexes the first series): a miss, so the caller recomputes
			// instead of crashing mid-encode.
			r := sample("t2")
			r.AddFigure(&result.Figure{Name: "f", Title: "no series"})
			payload, _ := json.Marshal(r)
			return frame(payload)
		},
		"ragged-series": func(b []byte) []byte {
			r := sample("t2")
			r.AddFigure(&result.Figure{Name: "f", Title: "ragged", Series: []result.Series{
				{Name: "s", X: []float64{1, 2}, Y: []float64{3}},
			}})
			payload, _ := json.Marshal(r)
			return frame(payload)
		},
		"trailing-data": func(b []byte) []byte {
			// A second JSON value after the result must not be ignored.
			payload, _ := json.Marshal(sample("t2"))
			return frame(append(payload, []byte("{}")...))
		},
	} {
		t.Run(name, func(t *testing.T) {
			s := open(t, Config{})
			s.Put("t2", "cafe", sample("t2"))
			path := filepath.Join(s.Dir(), fileName("t2", "cafe"))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get("t2", "cafe"); ok {
				t.Fatal("Get served a corrupt file")
			}
			if st := s.Counters(); st.Corrupt != 1 {
				t.Fatalf("corrupt count = %d, want 1", st.Corrupt)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt file was not removed")
			}
			// The key works again after a fresh Put.
			s.Put("t2", "cafe", sample("t2"))
			if _, ok := s.Get("t2", "cafe"); !ok {
				t.Fatal("store broken after corrupt-file recovery")
			}
		})
	}
}

// TestEntryBound: past MaxEntries the oldest files are evicted, newest
// survive.
func TestEntryBound(t *testing.T) {
	s := open(t, Config{MaxEntries: 3})
	keys := []string{"k0", "k1", "k2", "k3", "k4"}
	for i, k := range keys {
		s.Put("t2", k, sample("t2"))
		// Distinct mtimes so oldest-first is deterministic regardless of
		// filesystem timestamp granularity.
		path := filepath.Join(s.Dir(), fileName("t2", k))
		ts := time.Now().Add(time.Duration(i-len(keys)) * time.Second)
		if err := os.Chtimes(path, ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	// Trigger one more enforcement pass with a fresh (newest) write.
	s.Put("t2", "k5", sample("t2"))
	if entries, _ := s.Footprint(); entries > 3 {
		t.Fatalf("entries = %d, bound is 3", entries)
	}
	if s.Counters().Evictions == 0 {
		t.Fatal("no evictions counted past the bound")
	}
	if _, ok := s.Get("t2", "k5"); !ok {
		t.Fatal("newest entry was evicted")
	}
	if _, ok := s.Get("t2", "k0"); ok {
		t.Fatal("oldest entry survived past the bound")
	}
}

// TestByteBound: the byte bound evicts even when the entry count is fine.
func TestByteBound(t *testing.T) {
	probe := open(t, Config{})
	probe.Put("t2", "probe", sample("t2"))
	_, size := probe.Footprint()

	s := open(t, Config{MaxBytes: 2*size + size/2})
	for i, k := range []string{"b0", "b1", "b2", "b3"} {
		s.Put("t2", k, sample("t2"))
		path := filepath.Join(s.Dir(), fileName("t2", k))
		ts := time.Now().Add(time.Duration(i-8) * time.Second)
		if err := os.Chtimes(path, ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	s.Put("t2", "b4", sample("t2"))
	if _, total := s.Footprint(); total > 2*size+size/2 {
		t.Fatalf("bytes = %d, bound is %d", total, 2*size+size/2)
	}
	if _, ok := s.Get("t2", "b4"); !ok {
		t.Fatal("newest entry was evicted by the byte bound")
	}
}

// TestHostileKeyStaysInside: path-hostile artifact IDs are defanged by
// hashing — no file lands outside the store directory.
func TestHostileKeyStaysInside(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "store")
	s := open(t, Config{Dir: dir})
	s.Put("../escape", "k/../..", sample("../escape"))
	des, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 || des[0].Name() != "store" {
		t.Fatalf("hostile key wrote outside the store dir: %v", des)
	}
	// The hostile key still round-trips (under its hashed name).
	if _, ok := s.Get("../escape", "k/../.."); !ok {
		t.Fatal("hostile key did not round-trip")
	}
}

// TestSharedDirectory: two handles over one directory see each other's
// writes — the multi-replica warming contract.
func TestSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	a := open(t, Config{Dir: dir})
	b := open(t, Config{Dir: dir})
	a.Put("t2", "cafe", sample("t2"))
	if _, ok := b.Get("t2", "cafe"); !ok {
		t.Fatal("sibling handle missed the shared write")
	}
}
