package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusRendering pins the exposition format: HELP/TYPE headers,
// label escaping, sorted vector children, cumulative histogram buckets with
// _sum/_count.
func TestPrometheusRendering(t *testing.T) {
	r := &Registry{}
	c := r.Counter("req_total", "requests served")
	c.Add(3)
	v := r.CounterVec("art_total", "per-artifact", "artifact")
	v.With("t2").Add(2)
	v.With("c8").Inc()
	g := r.Gauge("in_flight", "in-flight requests")
	g.Set(5)
	g.Dec()
	r.GaugeFunc("entries", "cache entries", func() float64 { return 7 })
	h := r.Histogram("latency_seconds", "request latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP req_total requests served
# TYPE req_total counter
req_total 3
# HELP art_total per-artifact
# TYPE art_total counter
art_total{artifact="c8"} 1
art_total{artifact="t2"} 2
# HELP in_flight in-flight requests
# TYPE in_flight gauge
in_flight 4
# HELP entries cache entries
# TYPE entries gauge
entries 7
# HELP latency_seconds request latency
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.1"} 1
latency_seconds_bucket{le="1"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 3.55
latency_seconds_count 3
`
	if got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Children live in a map, so only the sort makes their order stable:
	// 16 children inserted out of order render sorted, every time.
	want = "# HELP many_total many children\n# TYPE many_total counter\n"
	for i := 0; i < 16; i++ {
		want += fmt.Sprintf("many_total{k=\"k%02d\"} %d\n", i, i)
	}
	for rep := 0; rep < 20; rep++ {
		r := &Registry{}
		v := r.CounterVec("many_total", "many children", "k")
		for i := 0; i < 16; i++ {
			k := i * 7 % 16
			v.With(fmt.Sprintf("k%02d", k)).Add(float64(k))
		}
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if got := sb.String(); got != want {
			t.Fatalf("vec children out of order (run %d):\n%s", rep, got)
		}
	}
}

// TestLabelEscaping: quotes, backslashes, and newlines in label values must
// not corrupt the exposition.
func TestLabelEscaping(t *testing.T) {
	r := &Registry{}
	v := r.CounterVec("x_total", "x", "k")
	v.With("a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `x_total{k="a\"b\\c\nd"} 1`) {
		t.Errorf("bad escaping:\n%s", sb.String())
	}
}

// TestDuplicateRegistrationPanics: two families with one name is a
// programming error and must fail loudly.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := &Registry{}
	r.Counter("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "second")
}

// TestConcurrentUpdates exercises every instrument from many goroutines
// under -race, and checks the totals are exact (atomics, no lost updates).
func TestConcurrentUpdates(t *testing.T) {
	r := &Registry{}
	c := r.Counter("c_total", "c")
	v := r.CounterVec("v_total", "v", "k")
	g := r.Gauge("g", "g")
	h := r.Histogram("h_seconds", "h", DurationBuckets())
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				v.With([]string{"a", "b"}[w%2]).Inc()
				g.Add(1)
				h.Observe(0.001)
			}
		}(w)
	}
	// Scrape concurrently with the writers to surface races.
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Errorf("counter lost updates: got %g want %d", got, workers*each)
	}
	if got := v.With("a").Value() + v.With("b").Value(); got != workers*each {
		t.Errorf("vec lost updates: got %g want %d", got, workers*each)
	}
	if got := g.Value(); got != workers*each {
		t.Errorf("gauge lost updates: got %g want %d", got, workers*each)
	}
	if got := h.Count(); got != workers*each {
		t.Errorf("histogram lost updates: got %d want %d", got, workers*each)
	}
}

// TestCounterVecCapsLabelValues: a vec admits MaxLabelValues distinct
// values; later new values count under "other", values admitted before
// the cap keep their own series, and a warm child costs no allocation.
func TestCounterVecCapsLabelValues(t *testing.T) {
	r := &Registry{}
	v := r.CounterVec("cap_total", "capped", "k")
	const extra = 10
	for i := 0; i < MaxLabelValues+extra; i++ {
		v.With(fmt.Sprintf("v%03d", i)).Inc()
	}
	v.With("v000").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if n := strings.Count(got, "cap_total{"); n != MaxLabelValues+1 {
		t.Errorf("%d children after %d distinct values, want %d (the cap plus other)", n, MaxLabelValues+extra, MaxLabelValues+1)
	}
	for _, want := range []string{
		fmt.Sprintf("cap_total{k=\"other\"} %d\n", extra),
		"cap_total{k=\"v000\"} 2\n",
		fmt.Sprintf("cap_total{k=\"v%03d\"} 1\n", MaxLabelValues-1),
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, fmt.Sprintf("\"v%03d\"", MaxLabelValues)) {
		t.Errorf("a value past the cap got its own series")
	}
	for _, label := range []string{"v001", "past-the-cap"} {
		if allocs := testing.AllocsPerRun(100, func() { v.With(label).Inc() }); allocs != 0 {
			t.Errorf("warm With(%q).Inc() allocates %v times, want 0", label, allocs)
		}
	}
}
