// Package obs is the observability layer of the serving stack: a minimal,
// dependency-free metrics registry exporting the Prometheus text exposition
// format. It exists because the daemon (cmd/nanoreprod) must answer
// /metrics without pulling a client library into a stdlib-only module, and
// because the compute layer wants cheap atomic counters it can bump on hot
// paths (cache hits, solver runs) without knowing anything about HTTP.
//
// The registry supports the four instrument shapes the serving layer needs:
// monotonic counters (plain and single-label vectors), gauges (set/add and
// callback-backed), and fixed-bucket histograms. All instruments are safe
// for concurrent use and update via atomics; WritePrometheus takes a
// point-in-time snapshot with deterministic ordering (registration order,
// label-sorted children) so scrapes and golden tests are stable.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a set of metric families and renders them in the
// Prometheus text format. The zero value is ready to use.
type Registry struct {
	mu   sync.Mutex
	fams []*family // guarded by mu
}

// family is one named metric with HELP/TYPE headers and a snapshot
// function producing its samples.
type family struct {
	name, help, typ string
	collect         func() []sample
}

// sample is one exposition line: an optional pre-rendered label block
// (`{k="v"}`) and the value, plus an optional name suffix (_bucket, _sum,
// _count) for histograms.
type sample struct {
	suffix string
	labels string
	value  float64
}

func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, existing := range r.fams {
		if existing.name == f.name {
			panic("obs: duplicate metric " + f.name)
		}
	}
	r.fams = append(r.fams, f)
}

// WritePrometheus renders every registered family in the text exposition
// format (version 0.0.4): HELP and TYPE headers followed by one line per
// sample.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.families() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.collect() {
			if _, err := fmt.Fprintf(w, "%s%s%s %s\n", f.name, s.suffix, s.labels, formatValue(s.value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// families returns a snapshot of the registered families, so collectors
// run without the registry lock.
func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*family(nil), r.fams...)
}

// formatValue renders a float the way Prometheus expects: shortest exact
// decimal, with +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// atomicFloat is a float64 updated via CAS on its bit pattern, so counters
// can accumulate fractional quantities (seconds) locklessly.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ v atomicFloat }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds v, which must be non-negative (not enforced; counters are
// trusted internal instruments).
func (c *Counter) Add(v float64) { c.v.Add(v) }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, typ: "counter", collect: func() []sample {
		return []sample{{value: c.Value()}}
	}})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for counters owned by other packages (e.g. the compute
// cache's hit/miss totals).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "counter", collect: func() []sample {
		return []sample{{value: fn()}}
	}})
}

// MaxLabelValues caps the distinct label values one CounterVec admits.
// Every child lives in the registry for good, and some label values come
// from untrusted input (scenario names in POST bodies), so without a cap a
// client could mint one time series per request.
const MaxLabelValues = 64

// CounterVec is a family of counters distinguished by one label.
type CounterVec struct {
	key      string
	mu       sync.Mutex
	children map[string]*Counter // guarded by mu
}

// With returns (creating on first use) the child counter for the label
// value. Once the vec holds MaxLabelValues children, a value it has not
// seen counts under the extra child "other"; values admitted earlier keep
// their own series.
func (v *CounterVec) With(labelValue string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[labelValue]
	if !ok && len(v.children) >= MaxLabelValues {
		labelValue = "other"
		c, ok = v.children[labelValue]
	}
	if !ok {
		c = &Counter{}
		v.children[labelValue] = c
	}
	return c
}

func (v *CounterVec) snapshot() []sample {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]sample, 0, len(keys))
	for _, k := range keys {
		out = append(out, sample{
			labels: "{" + v.key + `="` + escapeLabel(k) + `"}`,
			value:  v.children[k].Value(),
		})
	}
	return out
}

// CounterVec registers and returns a new single-label counter family.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	v := &CounterVec{key: labelKey, children: map[string]*Counter{}}
	r.register(&family{name: name, help: help, typ: "counter", collect: v.snapshot})
	return v
}

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Inc adds 1; Dec subtracts 1.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, typ: "gauge", collect: func() []sample {
		return []sample{{value: g.Value()}}
	}})
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "gauge", collect: func() []sample {
		return []sample{{value: fn()}}
	}})
}

// Histogram counts observations into fixed cumulative buckets, Prometheus
// style: each bucket counts observations ≤ its bound, an implicit +Inf
// bucket counts everything, and _sum/_count accompany the buckets.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // one per bound; +Inf is total count
	count  atomic.Uint64
	sum    atomicFloat
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
		}
	}
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

func (h *Histogram) snapshot() []sample {
	out := make([]sample, 0, len(h.bounds)+3)
	for i, b := range h.bounds {
		out = append(out, sample{
			suffix: "_bucket",
			labels: fmt.Sprintf("{le=%q}", formatValue(b)),
			value:  float64(h.counts[i].Load()),
		})
	}
	out = append(out,
		sample{suffix: "_bucket", labels: `{le="+Inf"}`, value: float64(h.count.Load())},
		sample{suffix: "_sum", value: h.sum.Load()},
		sample{suffix: "_count", value: float64(h.count.Load())},
	)
	return out
}

// Histogram registers and returns a new histogram with the given strictly
// increasing bucket bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing: " + name)
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]atomic.Uint64, len(bounds))}
	r.register(&family{name: name, help: help, typ: "histogram", collect: h.snapshot})
	return h
}

// DurationBuckets is a latency bucket ladder suited to this service: the
// warm-cache path answers in microseconds, a default c8 mesh solve in
// milliseconds, and a refined 255-node mesh in tens of milliseconds.
func DurationBuckets() []float64 {
	return []float64{1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}
