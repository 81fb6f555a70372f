package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nanometer/internal/result"
)

const hungryDoc = `{
	"name": "hungry",
	"dt_seconds": 0.01,
	"generator": {"kind": "workload", "intervals": 4000}
}`

func TestParseValidation(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring of the error; "" = must parse
	}{
		{"minimal generator", hungryDoc, ""},
		{"explicit series", `{"name":"s","dt_seconds":0.01,"power_w":[1,2,3]}`, ""},
		{"virus", `{"name":"v","dt_seconds":0.01,"generator":{"kind":"virus","intervals":10}}`, ""},
		{"bad name", `{"name":"UPPER","dt_seconds":0.01,"power_w":[1]}`, "name"},
		{"unknown field", `{"name":"x","dt_seconds":0.01,"power_w":[1],"nope":1}`, "unknown field"},
		{"trailing data", `{"name":"x","dt_seconds":0.01,"power_w":[1]} {}`, "trailing data"},
		{"no series", `{"name":"x","dt_seconds":0.01}`, "power_w or generator"},
		{"both series", `{"name":"x","dt_seconds":0.01,"power_w":[1],"generator":{"kind":"virus","intervals":1}}`, "mutually exclusive"},
		{"zero dt", `{"name":"x","dt_seconds":0,"power_w":[1]}`, "dt_seconds"},
		{"negative power", `{"name":"x","dt_seconds":0.01,"power_w":[-1]}`, "power_w[0]"},
		{"bad node", `{"name":"x","dt_seconds":0.01,"node_nm":42,"power_w":[1]}`, "node_nm"},
		{"bad kind", `{"name":"x","dt_seconds":0.01,"generator":{"kind":"sine","intervals":1}}`, "kind"},
		{"zero intervals", `{"name":"x","dt_seconds":0.01,"generator":{"kind":"virus","intervals":0}}`, "intervals"},
		{"virus with shaping", `{"name":"x","dt_seconds":0.01,"generator":{"kind":"virus","intervals":1,"seed":2}}`, "virus"},
		{"burst fraction range", `{"name":"x","dt_seconds":0.01,"generator":{"kind":"workload","intervals":1,"burst_fraction":1.5}}`, "burst_fraction"},
		{"bad controller", `{"name":"x","dt_seconds":0.01,"power_w":[1],"sim":{"controller":"magic"}}`, "controller"},
		{"dvs field on throttle", `{"name":"x","dt_seconds":0.01,"power_w":[1],"sim":{"controller":"throttle","freq_scale":0.5}}`, "freq_scale"},
		{"duty on dvs", `{"name":"x","dt_seconds":0.01,"power_w":[1],"sim":{"controller":"dvs","duty_cycle":0.5}}`, "duty_cycle"},
		{"bad check", `{"name":"x","dt_seconds":0.01,"power_w":[1],"assert":[{"check":"vibes","value":1,"rel_tol":0.1}]}`, "vibes"},
		{"zero tol", `{"name":"x","dt_seconds":0.01,"power_w":[1],"assert":[{"check":"peak_temp_c","value":1,"rel_tol":0}]}`, "rel_tol"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.doc))
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	tr := MustParse(hungryDoc)
	canon := tr.Canonical()
	tr2, err := Parse(canon)
	if err != nil {
		t.Fatalf("reparsing canonical form: %v", err)
	}
	if !bytes.Equal(canon, tr2.Canonical()) {
		t.Fatalf("canonical encoding is not a fixed point:\n%s\n%s", canon, tr2.Canonical())
	}
	if tr.Key() != tr2.Key() {
		t.Fatalf("key changed across the round trip: %s vs %s", tr.Key(), tr2.Key())
	}
}

func TestKeySeparatesContent(t *testing.T) {
	a := MustParse(hungryDoc)
	b := MustParse(strings.Replace(hungryDoc, "4000", "4001", 1))
	if a.Key() == b.Key() {
		t.Fatalf("different traces share key %s", a.Key())
	}
	if a.ArtifactID() != "trace:hungry" {
		t.Fatalf("artifact ID %q", a.ArtifactID())
	}
}

func FuzzTraceParse(f *testing.F) {
	f.Add([]byte(hungryDoc))
	f.Add([]byte(`{"name":"v","dt_seconds":0.01,"generator":{"kind":"virus","intervals":10}}`))
	f.Add([]byte(`{"name":"x","dt_seconds":0.5,"power_w":[0,1,2],"sim":{"controller":"dvs","freq_scale":0.5,"vdd_scale":0.8},"assert":[{"check":"peak_temp_c","value":50,"rel_tol":0.2}]}`))
	f.Add([]byte(`{"name":"d","dt_seconds":0.5,"power_w":[1],"assert":[{"check":"peak_temp_c","value":50,"rel_tol":0.2},{"check":"peak_temp_c","value":60,"rel_tol":0.2}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Parse(data)
		if err != nil {
			return
		}
		// An accepted trace asserts each check at most once.
		seen := map[string]bool{}
		for _, a := range tr.Assert {
			if seen[a.Check] {
				t.Fatalf("Parse accepted a second assertion on %s", a.Check)
			}
			seen[a.Check] = true
		}
		canon := tr.Canonical()
		tr2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not reparse: %v\n%s", err, canon)
		}
		if !bytes.Equal(canon, tr2.Canonical()) {
			t.Fatalf("canonical encoding is not a fixed point")
		}
	})
}

// TestRunDeterministic pins that one trace simulates to identical findings
// (and identical chunk streams) on every run — the property the content-
// addressed store depends on.
func TestRunDeterministic(t *testing.T) {
	run := func() ([]byte, int) {
		tr := MustParse(hungryDoc)
		chunks := 0
		res, err := tr.Run(context.Background(), func(Progress) { chunks++ })
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b, chunks
	}
	a, ca := run()
	b, cb := run()
	if !bytes.Equal(a, b) {
		t.Fatalf("two runs of one trace differ")
	}
	if ca != cb || ca == 0 || ca > MaxChunks {
		t.Fatalf("chunk counts %d, %d (want equal, in (0, %d])", ca, cb, MaxChunks)
	}
}

// TestRunVirusThrottles pins the physics end of the pipeline: a power-virus
// trace at the 50 nm node must trip the sensor, throttle hard, and hold the
// junction near the trip point, while the ≈75 % workload throttles rarely.
func TestRunVirusThrottles(t *testing.T) {
	virus := MustParse(`{"name":"v","dt_seconds":0.01,"generator":{"kind":"virus","intervals":20000}}`)
	res, err := virus.Run(context.Background(), nil)
	if err != nil {
		t.Fatalf("virus run: %v", err)
	}
	find := func(res *result.Result, key string) float64 {
		t.Helper()
		for _, it := range res.Items {
			if it.Claim == nil {
				continue
			}
			if f, ok := it.Claim.Find(key); ok {
				return f.Value
			}
		}
		t.Fatalf("finding %s missing", key)
		return 0
	}
	if tf := find(res, "throttled_fraction"); tf < 0.2 {
		t.Errorf("virus throttled fraction %.3f, want substantial throttling", tf)
	}
	if pk := find(res, "peak_temp_c"); pk < 80 || pk > 95 {
		t.Errorf("virus peak temp %.1f °C, want near the 85 °C junction limit", pk)
	}
	hungry := MustParse(strings.Replace(hungryDoc, "4000", "20000", 1))
	hres, err := hungry.Run(context.Background(), nil)
	if err != nil {
		t.Fatalf("hungry run: %v", err)
	}
	if tf := find(hres, "throttled_fraction"); tf > 0.5 {
		t.Errorf("workload throttled fraction %.3f, want well under the virus", tf)
	}
	if ratio := find(hres, "dvfs_energy_ratio"); !(ratio > 0 && ratio < 1) {
		t.Errorf("dvfs energy ratio %.3f, want in (0, 1): voltage scaling must beat gating", ratio)
	}
}

// TestRunAssertions pins the assertion plumbing: a passing check and a
// failing one both land on the claim, and only the failing one surfaces in
// Result.FailedChecks.
func TestRunAssertions(t *testing.T) {
	tr := MustParse(`{
		"name": "asserted", "dt_seconds": 0.01,
		"generator": {"kind": "virus", "intervals": 5000},
		"assert": [
			{"check": "peak_temp_c", "value": 85, "rel_tol": 0.1},
			{"check": "throughput", "value": 0.001, "rel_tol": 0.01}
		]
	}`)
	res, err := tr.Run(context.Background(), nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	failed := res.FailedChecks()
	if len(failed) != 1 || failed[0].Key != "throughput" {
		t.Fatalf("failed checks %v, want exactly the absurd throughput assertion", failed)
	}
}

// TestRunCancel pins the cancellation contract end to end, through Run: a
// run canceled from its progress callback stops at once — observed as a
// prompt error, no result, and a progress stream cut short of the total.
// TestRunCancelInChunk and TestRunCancelBound pin where it stops.
func TestRunCancel(t *testing.T) {
	tr := MustParse(`{"name":"long","dt_seconds":0.01,"generator":{"kind":"workload","intervals":40000000}}`)
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	var last Progress
	res, err := tr.Run(ctx, func(p Progress) {
		seen++
		last = p
		if seen == 2 {
			cancel()
		}
	})
	if res != nil || err == nil {
		t.Fatalf("canceled run returned res=%v err=%v", res, err)
	}
	if !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("error %v, want context cancellation", err)
	}
	if last.Done >= last.Total {
		t.Fatalf("run completed (%d/%d) despite cancellation", last.Done, last.Total)
	}
}

// TestRunCancelInChunk pins that a cancel raised inside onChunk lands
// before the next interval: the run returns context.Canceled, and the
// chunk that canceled is the last one delivered, whether it is the first
// chunk, one in the middle of a block (40 000 intervals chunk every 79, so
// the next check at a block edge would come about 50 chunks later) or the
// final one.
func TestRunCancelInChunk(t *testing.T) {
	tr := MustParse(`{"name":"chunky","dt_seconds":0.01,"generator":{"kind":"workload","intervals":40000}}`)
	var all []Progress
	if _, err := tr.Run(context.Background(), func(p Progress) { all = append(all, p) }); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 7, len(all)} {
		ctx, cancel := context.WithCancel(context.Background())
		var got []Progress
		res, err := tr.Run(ctx, func(p Progress) {
			if got = append(got, p); len(got) == k {
				cancel()
			}
		})
		cancel()
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel in chunk %d: run returned res=%v err=%v, want context.Canceled", k, res, err)
		}
		if len(got) != k || got[k-1] != all[k-1] {
			t.Fatalf("cancel in chunk %d (done %d): %d chunks delivered, the last at done %d",
				k, all[k-1].Done, len(got), got[len(got)-1].Done)
		}
	}
}

// TestRunCancelBound pins how far a run goes past a cancel raised outside
// it. The filler cancels while it fills block 3, so the loop takes that
// block only after the cancel and stops there: no interval of block 3
// runs, and the last chunk delivered is within the first two blocks. With
// 8 M intervals a chunk covers 15 625 intervals, more than two blocks, so
// only the check before each block can stop the run there; a run that
// checked only per chunk would deliver the chunk at 15 625. Block 3 is
// ready by the time the loop asks for it, so a select that watched the
// cancel and the block together would take it half the time; the run is
// repeated so that such a loop fails.
func TestRunCancelBound(t *testing.T) {
	tr := MustParse(`{"name":"bound","dt_seconds":0.01,"generator":{"kind":"workload","intervals":8000000}}`)
	for round := 0; round < 10; round++ {
		s, err := tr.setup()
		if err != nil {
			t.Fatal(err)
		}
		if s.stride <= 2*blockLen {
			t.Fatalf("stride %d must exceed two blocks of %d", s.stride, blockLen)
		}
		ctx, cancel := context.WithCancel(context.Background())
		blocks, fill := 0, s.fill // blocks is touched by the producer only
		s.fill = func(buf []float64) {
			if blocks++; blocks == 3 {
				cancel()
			}
			fill(buf)
		}
		var last Progress
		_, err = s.run(ctx, func(p Progress) { last = p })
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: run returned %v, want context.Canceled", round, err)
		}
		if bound := 2 * blockLen; last.Done > bound {
			t.Fatalf("round %d: last chunk at done %d after a cancel in block 3's fill, want at most %d", round, last.Done, bound)
		}
	}
}

// TestRunJoinsProducer pins that a run's series producer never outlives
// it, after a completed run, a cancel inside the first block and a cancel
// mid-run. The filler is wrapped so that every block after the first
// takes a millisecond: a run that returned without waiting for its
// producer would leave a fill in progress. When the run returns, no fill
// is in progress, and none starts afterwards. The goroutine count then
// returns to its value before the run; it is given a moment, because a
// joined goroutine is still counted until the runtime finishes its exit,
// just after its last statement.
func TestRunJoinsProducer(t *testing.T) {
	cases := []struct {
		name, gen string
		// cancelAt is the progress chunk whose callback cancels; 0 runs
		// to completion.
		cancelAt int
	}{
		{"completed", `{"kind":"virus","intervals":20000}`, 0},
		// 40 000 intervals chunk every 79: the first chunk is inside the
		// first block.
		{"first block", `{"kind":"workload","intervals":40000}`, 1},
		{"mid-run", `{"kind":"workload","intervals":40000000}`, 2},
	}
	for _, tc := range cases {
		s, err := MustParse(`{"name":"join","dt_seconds":0.01,"generator":` + tc.gen + `}`).setup()
		if err != nil {
			t.Fatal(err)
		}
		var (
			inFill, lateFills atomic.Int32
			returned          atomic.Bool
			blocks            int // touched by the producer only
			fill              = s.fill
		)
		s.fill = func(buf []float64) {
			if returned.Load() {
				lateFills.Add(1)
			}
			inFill.Add(1)
			defer inFill.Add(-1)
			if blocks++; blocks > 1 {
				time.Sleep(time.Millisecond)
			}
			fill(buf)
		}
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		var last Progress
		before := runtime.NumGoroutine()
		_, err = s.run(ctx, func(p Progress) {
			last = p
			if seen++; seen == tc.cancelAt {
				cancel()
			}
		})
		returned.Store(true)
		if n := inFill.Load(); n != 0 {
			t.Errorf("%s: %d fills in progress when the run returned", tc.name, n)
		}
		cancel()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines after the run, %d before", tc.name, after, before)
		}
		if n := lateFills.Load(); n != 0 {
			t.Errorf("%s: %d fills started after the run returned", tc.name, n)
		}
		switch {
		case tc.cancelAt == 0 && err != nil:
			t.Errorf("%s: run failed: %v", tc.name, err)
		case tc.cancelAt > 0 && (!errors.Is(err, context.Canceled) || last.Done >= last.Total):
			t.Errorf("%s: canceled run returned %v at %d/%d", tc.name, err, last.Done, last.Total)
		case tc.name == "first block" && last.Done >= blockLen:
			t.Errorf("%s: canceled at interval %d, past the first block", tc.name, last.Done)
		}
	}
}

// TestProgressInvariants walks a run's chunk stream checking monotonicity
// and the final-chunk guarantee.
func TestProgressInvariants(t *testing.T) {
	tr := MustParse(`{"name":"s","dt_seconds":0.5,"power_w":[10,20,30,40,50,60,70]}`)
	var got []Progress
	res, err := tr.Run(context.Background(), func(p Progress) { got = append(got, p) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("no chunks")
	}
	prev := 0
	for _, p := range got {
		if p.Done <= prev || p.Total != 7 {
			t.Fatalf("chunk %+v not monotone over total 7", p)
		}
		if math.Abs(p.TimeS-float64(p.Done)*0.5) > 1e-12 {
			t.Fatalf("chunk time %g, want %g", p.TimeS, float64(p.Done)*0.5)
		}
		prev = p.Done
	}
	if got[len(got)-1].Done != 7 {
		t.Fatalf("final chunk at %d/7", got[len(got)-1].Done)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("result invalid: %v", err)
	}
}

// TestCommittedKeys pins the keys of the committed traces (job and store
// identities derive from them) and that a second Key call, which every job
// snapshot makes, is served from the memo without allocating.
func TestCommittedKeys(t *testing.T) {
	for name, want := range map[string]string{"hungry75": "3d3aed4b4f3c6f0a", "virus": "9252b02be92a52b4"} {
		tr, err := Load("../../traces/" + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Key(); got != want {
			t.Errorf("%s: key %s, want %s", name, got, want)
		}
		if n := testing.AllocsPerRun(100, func() { tr.Key() }); n != 0 {
			t.Errorf("%s: a memoized Key allocates %v times", name, n)
		}
	}
}
