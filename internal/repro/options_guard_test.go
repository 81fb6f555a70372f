package repro

import (
	"reflect"
	"testing"
)

// Every Options field must be explicitly classified. computeSide fields
// reach the models and MUST be hashed by computeKey; encodeOnly fields
// affect encoding or cache policy only and MUST NOT be. Whoever adds an
// Options field decides its class here in the same change.
var (
	computeSideFields = map[string]bool{
		"MeshN":    true,
		"Scenario": true,
	}
	encodeOnlyFields = map[string]bool{
		"NoCache": true,
	}
)

// TestComputeKeyCoversOptions is the reflection guard: it fails when
// Options gains an unclassified field, when the classification lists drift
// from the struct, and — the part that keeps the classification honest —
// when computeKey's actual behavior disagrees with a field's class.
func TestComputeKeyCoversOptions(t *testing.T) {
	rt := reflect.TypeOf(Options{})
	seen := map[string]bool{}
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		seen[f.Name] = true
		compute, encode := computeSideFields[f.Name], encodeOnlyFields[f.Name]
		switch {
		case compute && encode:
			t.Errorf("Options.%s is classified both compute-side and encode-only", f.Name)
		case !compute && !encode:
			t.Errorf("Options gained field %s without classifying it in options_guard_test.go: "+
				"decide whether it reaches the models (add to computeSideFields AND computeKey) "+
				"or only affects encoding (add to encodeOnlyFields)", f.Name)
			continue
		}

		// Behavioral check: perturb exactly this field and compare keys.
		base := Options{}.computeKey()
		opts := Options{}
		if err := perturb(reflect.ValueOf(&opts).Elem().Field(i)); err != nil {
			t.Fatalf("Options.%s: %v", f.Name, err)
		}
		changed := opts.computeKey() != base
		if compute && !changed {
			t.Errorf("Options.%s is classified compute-side but computeKey ignores it — the cache would serve stale results", f.Name)
		}
		if encode && changed {
			t.Errorf("Options.%s is classified encode-only but changes computeKey — encodings would stop sharing one compute", f.Name)
		}
	}
	for name := range computeSideFields {
		if !seen[name] {
			t.Errorf("computeSideFields lists %s, which is no longer an Options field", name)
		}
	}
	for name := range encodeOnlyFields {
		if !seen[name] {
			t.Errorf("encodeOnlyFields lists %s, which is no longer an Options field", name)
		}
	}
}

// perturb sets a field to an arbitrary non-zero value of its kind.
func perturb(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1.5)
	case reflect.String:
		v.SetString("guard-probe")
	case reflect.Pointer:
		// A freshly allocated pointee is the minimal non-nil perturbation;
		// for *scenario.Scenario the zero scenario hashes differently from
		// nil, which is exactly the behavior the guard must observe.
		v.Set(reflect.New(v.Type().Elem()))
	default:
		return &unsupportedKindError{v.Kind().String()}
	}
	return nil
}

type unsupportedKindError struct{ kind string }

func (e *unsupportedKindError) Error() string {
	return "field kind " + e.kind + " not supported by the guard — teach perturb() about it"
}

// TestComputeKeyMeshN: mesh-n requests that solve the same mesh share one
// compute key, so the default and an explicit 41 (or its even neighbour
// 40) never splinter the compute cache, the store or the body memo.
func TestComputeKeyMeshN(t *testing.T) {
	key := Options{}.computeKey()
	for _, n := range []int{40, 41} {
		if got := (Options{MeshN: n}).computeKey(); got != key {
			t.Errorf("mesh-n %d key %s, want the default's %s", n, got, key)
		}
	}
	if (Options{MeshN: 43}).computeKey() == key {
		t.Error("mesh-n 43 shares the default's key")
	}
}

// TestValidateMeshN pins the boundary validation the CLI flag and the
// daemon's query parameter share.
func TestValidateMeshN(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{
		{0, true}, {5, true}, {41, true}, {255, true}, {1023, true},
		{-5, false}, {-1, false}, {1, false}, {2, false}, {4, false},
		{1024, false}, {1 << 20, false},
	} {
		err := ValidateMeshN(tc.n)
		if tc.ok && err != nil {
			t.Errorf("ValidateMeshN(%d) = %v, want nil", tc.n, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("ValidateMeshN(%d) = nil, want error", tc.n)
		}
	}
}
