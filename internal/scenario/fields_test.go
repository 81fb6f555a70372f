package scenario

import (
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nanometer/internal/itrs"
)

// TestFieldTableCoversNodeSpec pins the field table to NodeSpec through its
// JSON tags: every *float64 field has exactly one row, except the two
// device parameters, which are not roadmap fields; each row's accessors
// reach the field of its key and a distinct itrs.Node field; its two
// multipliers are inverses; and every sweep param names rows only.
func TestFieldTableCoversNodeSpec(t *testing.T) {
	rows := map[string]bool{}
	for _, f := range fields {
		if rows[f.key] {
			t.Errorf("key %s has two rows", f.key)
		}
		rows[f.key] = true
	}
	var spec NodeSpec
	sv := reflect.ValueOf(&spec).Elem()
	var node itrs.Node
	nodeFields := map[*float64]string{}
	for i := 0; i < sv.NumField(); i++ {
		sf := sv.Type().Field(i)
		if sf.Type != reflect.TypeOf((*float64)(nil)) {
			continue
		}
		key, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
		if key == "vth_anchor_v" || key == "dibl_v_per_v" {
			if rows[key] {
				t.Errorf("device parameter %s has a roadmap row", key)
			}
			continue
		}
		if !rows[key] {
			t.Errorf("NodeSpec.%s (%s) has no row", sf.Name, key)
			continue
		}
		delete(rows, key)
		f := fieldByKey(key)
		if f.spec(&spec) != sv.Field(i).Addr().Interface().(**float64) {
			t.Errorf("row %s reaches another NodeSpec field than %s", key, sf.Name)
		}
		p := f.node(&node)
		if other, dup := nodeFields[p]; dup {
			t.Errorf("rows %s and %s reach one itrs.Node field", other, key)
		}
		nodeFields[p] = key
		if math.Abs(f.toSI*f.toSpec-1) > 1e-12 || !(f.lo <= f.hi) {
			t.Errorf("row %s: toSI %g, toSpec %g, range [%g, %g]", key, f.toSI, f.toSpec, f.lo, f.hi)
		}
	}
	for key := range rows {
		t.Errorf("row %s names no NodeSpec *float64 field", key)
	}
	var params []string
	for p, keys := range sweepParams {
		params = append(params, p)
		for _, key := range keys {
			if !slices.ContainsFunc(fields, func(f field) bool { return f.key == key }) {
				t.Errorf("sweep param %s names %s, which has no row", p, key)
			}
		}
	}
	slices.Sort(params)
	if !slices.Equal(params, SweepParamNames()) {
		t.Errorf("SweepParamNames() = %v, sweepParams holds %v", SweepParamNames(), params)
	}
}

// TestCommittedKeys pins the keys of the committed scenarios (compute-cache
// keys, store files and ETags derive from them) and that a second Key call
// is served from the memo without allocating.
func TestCommittedKeys(t *testing.T) {
	for name, want := range map[string]string{"ext65": "aac249823491a4b3", "leakage": "bd3b1cf01aabad38"} {
		s, err := Load(filepath.Join("..", "..", "scenarios", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Key(); got != want {
			t.Errorf("%s: key %s, want %s", name, got, want)
		}
		if n := testing.AllocsPerRun(100, func() { s.Key() }); n != 0 {
			t.Errorf("%s: a memoized Key allocates %v times", name, n)
		}
	}
}
