package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"nanometer/internal/powergrid"
	"nanometer/internal/repro"
)

// goldenPath is the committed text report, relative to the repository root.
const goldenPath = "internal/repro/testdata/report.golden"

// repoRoot returns the nearest directory at or above the working directory
// that holds the golden report: the checkout the benchmark runs from.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, goldenPath)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no %s at or above the working directory: run from the repository root", goldenPath)
		}
		dir = parent
	}
}

// metric is one measured number with the count of samples behind it.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	// note qualifies the value, e.g. a percentile with a thin tail.
	note string
}

// metricValue is a metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line a run prints last.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadRun is everything one run of one workload produced.
type workloadRun struct {
	workload  string
	attempted int
	failed    int
	firstErr  error
	e2e       []metric
	layers    []metric
	spans     []span
}

func (r *workloadRun) correct() bool { return r.attempted > 0 && r.failed == 0 }

// outcome returns the result line: the end-to-end metrics, or in a traced
// run the per-layer ones.
func (r *workloadRun) outcome(traced bool) outcome {
	ms := r.e2e
	if traced {
		ms = r.layers
	}
	o := outcome{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range ms {
		o.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return o
}

// print writes one line per metric, `workload metric value unit (n=samples)`,
// then the result line.
func (r *workloadRun) print(w io.Writer, traced bool) error {
	for _, m := range append(append([]metric(nil), r.e2e...), r.layers...) {
		note := ""
		if m.note != "" {
			note = "; " + m.note
		}
		fmt.Fprintf(w, "%s %s %s %s (n=%d%s)\n", r.workload, m.name, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit, m.n, note)
	}
	line, err := json.Marshal(r.outcome(traced))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// procStats are the process-wide counters the metrics are deltas of.
type procStats struct {
	mallocs, totalAlloc uint64
	numGC               uint32
	gcCPU, totalCPU     float64
	cache               repro.CacheStats
	solves              powergrid.SolveStats
}

func readProcStats() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(cpu)
	return procStats{
		mallocs:    ms.Mallocs,
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		gcCPU:      cpu[0].Value.Float64(),
		totalCPU:   cpu[1].Value.Float64(),
		cache:      repro.ReadCacheStats(),
		solves:     powergrid.ReadSolveStats(),
	}
}

// heapSampler records the peak live-object heap while a traced phase runs.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// runWorkload sets w up e.sc.setupReps times (keeping the last), runs its
// timed phase for dur, and computes the metrics. A traced run also records
// spans, runs the layer probes, and computes the per-layer metrics.
func runWorkload(ctx context.Context, e *env, w workload, dur time.Duration, traced bool) (*workloadRun, error) {
	var inst instance
	closeInst := func() {
		if inst != nil {
			inst.close()
			inst = nil
		}
	}
	defer closeInst()
	setups := make([]float64, 0, e.sc.setupReps)
	for i := 0; i < e.sc.setupReps; i++ {
		closeInst()
		start := time.Now()
		in, err := w.setup(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		inst = in
	}

	var heap *heapSampler
	if traced {
		e.tr = newTracer()
		heap = startHeapSampler()
	}
	before := readProcStats()
	ph, err := inst.measure(ctx, dur)
	after := readProcStats()
	var heapPeak uint64
	if heap != nil {
		heapPeak = heap.finish()
	}
	closeInst()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if len(ph.samples) == 0 {
		return nil, fmt.Errorf("%s: no op ran in %s", w.name, dur)
	}

	r := &workloadRun{workload: w.name, attempted: len(ph.samples)}
	for _, s := range ph.samples {
		if s.err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = s.err
			}
		}
	}
	r.e2e = endToEnd(ph, setups, before, after)
	r.layers = opTiming(ph)
	if !traced {
		return r, nil
	}
	timedSpans := len(e.tr.snapshot())
	probes, err := runProbes(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("%s probes: %w", w.name, err)
	}
	r.spans = e.tr.snapshot()
	r.layers = append(r.layers, spanMetrics(r.spans)...)
	r.layers = append(r.layers, probes...)
	r.layers = append(r.layers, counterMetrics(ph, before, after, heapPeak)...)
	r.layers = append(r.layers, overheadMetric(ph, timedSpans))
	return r, nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the end-to-end metrics of a timed phase: the set-up
// time and the heap allocations per op. The allocation count does not move
// with the host's speed, as op timing does, nor with when the collector
// runs, as the bytes allocated do (README.md gives the spreads).
func endToEnd(ph phase, setups []float64, before, after procStats) []metric {
	return []metric{
		{name: "setup_s", value: median(setups), unit: "s", n: len(setups)},
		{name: "allocs_per_op", value: float64(after.mallocs-before.mallocs) / float64(len(ph.samples)), unit: "count", n: len(ph.samples)},
	}
}

// opTiming computes the throughput and median latency of a timed phase,
// over the ops that succeeded; a failed op is counted in the result line's
// failed and makes the run incorrect. Every run prints them; they are
// per-layer metrics, without a bound, because from run to run they drift
// with the host's speed by more than a timing bound allows.
func opTiming(ph phase) []metric {
	lat := okLatencies(ph.samples)
	return []metric{
		{name: "ops_per_s", value: float64(len(lat)) / ph.elapsed.Seconds(), unit: "1/s", n: len(lat)},
		latencyPercentile("latency_p50_ms", lat, 50),
	}
}

// okLatencies returns the latencies of the ops that succeeded, in
// milliseconds, sorted.
func okLatencies(samples []sample) []float64 {
	var lat []float64
	for _, s := range samples {
		if s.err == nil {
			lat = append(lat, msOf(s.latency))
		}
	}
	sort.Float64s(lat)
	return lat
}

// latencyPercentile is the p-th percentile of sorted op latencies in
// milliseconds, noting a percentile with too few samples beyond it.
func latencyPercentile(name string, sorted []float64, p int) metric {
	v, ok := percentile(sorted, p)
	m := metric{name: name, value: v, unit: "ms", n: len(sorted)}
	if !ok {
		m.note = fmt.Sprintf("fewer than %d samples beyond", minBeyond)
	}
	return m
}

// spanMetrics derives the artifact-compute layer from the spans of report
// ops: each artifact's median compute span and its share of all compute,
// and how much of the runner pool's capacity sat idle.
func spanMetrics(spans []span) []metric {
	compute := map[string][]float64{}
	busy := map[int]float64{}
	var total float64
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e6
		if id, ok := strings.CutPrefix(s.Name, "repro.compute/"); ok {
			compute[id] = append(compute[id], d)
			total += d
		}
		if strings.HasPrefix(s.Name, "runner.job/") && s.Parent >= 0 {
			busy[s.Parent] += d
		}
	}
	var out []metric
	for _, a := range repro.Artifacts() {
		ds := compute[a.ID]
		sum := 0.0
		for _, d := range ds {
			sum += d
		}
		out = append(out,
			metric{name: "repro.compute_ms." + a.ID, value: median(ds), unit: "ms", n: len(ds)},
			metric{name: "repro.share." + a.ID, value: ratio(sum, total), unit: "fraction", n: len(ds)})
	}
	var idle []float64
	workers := float64(runtime.GOMAXPROCS(0))
	for i, s := range spans {
		if s.Name == "op.report" && s.End > s.Start {
			idle = append(idle, 1-busy[i]/(workers*float64(s.End-s.Start)/1e6))
		}
	}
	mean := 0.0
	for _, v := range idle {
		mean += v / float64(len(idle))
	}
	return append(out, metric{name: "runner.idle_frac", value: mean, unit: "fraction", n: len(idle)})
}

// counterMetrics derives the per-layer ratios of the timed phase from the
// process counters and the daemon's /metrics.
func counterMetrics(ph phase, before, after procStats, heapPeak uint64) []metric {
	n := len(ph.samples)
	ops := float64(n)
	var latSum time.Duration
	var bytesRead float64
	lates := make([]float64, 0, n)
	for _, s := range ph.samples {
		latSum += s.latency
		bytesRead += float64(s.bytes)
		lates = append(lates, msOf(s.late))
	}
	sort.Float64s(lates)
	latePct, _ := percentile(lates, 99)
	lat := okLatencies(ph.samples)
	httpTime := ph.httpTime
	if httpTime == 0 {
		httpTime = latSum
	}

	solves := float64(after.solves.Solves - before.solves.Solves)
	iters := float64(after.solves.Iterations - before.solves.Iterations)
	batched := float64(after.solves.Batched - before.solves.Batched)
	hits := float64(after.cache.Hits - before.cache.Hits)
	lookups := hits + float64(after.cache.Misses-before.cache.Misses) + float64(after.cache.Bypassed-before.cache.Bypassed)
	srv := ph.server
	cpus := float64(runtime.GOMAXPROCS(0))
	return []metric{
		{name: "powergrid.solves_per_op", value: solves / ops, unit: "count", n: n},
		{name: "powergrid.iters_per_solve", value: ratio(iters, solves), unit: "count", n: int(solves)},
		{name: "powergrid.batched_frac", value: ratio(batched, solves), unit: "fraction", n: int(solves)},
		{name: "serve.server_frac", value: ratio(srv["nanoreprod_http_request_duration_seconds_sum"], httpTime.Seconds()), unit: "fraction", n: n},
		{name: "serve.cache_hit_ratio", value: ratio(hits, lookups), unit: "fraction", n: int(lookups)},
		{name: "serve.singleflight_shared_frac", value: ratio(srv["nanoreprod_singleflight_shared_total"], srv["nanoreprod_artifact_requests_total"]), unit: "fraction", n: int(srv["nanoreprod_artifact_requests_total"])},
		{name: "serve.not_modified_frac", value: ratio(srv["nanoreprod_etag_not_modified_total"], srv["nanoreprod_http_requests_total"]), unit: "fraction", n: int(srv["nanoreprod_http_requests_total"])},
		{name: "serve.gate_rejections", value: srv["nanoreprod_gate_rejections_total"], unit: "count", n: n},
		{name: "serve.timeouts", value: srv["nanoreprod_request_timeouts_total"], unit: "count", n: n},
		{name: "serve.compute_busy_frac", value: ratio(srv["nanoreprod_artifact_compute_seconds_total"], ph.elapsed.Seconds()*cpus), unit: "fraction", n: n},
		{name: "store.puts_per_op", value: float64(after.cache.StorePuts-before.cache.StorePuts) / ops, unit: "count", n: n},
		{name: "jobs.queue_wait_frac", value: ratio(ph.jobWait.Seconds(), latSum.Seconds()), unit: "fraction", n: n},
		{name: "jobs.run_frac", value: ratio(ph.jobRun.Seconds(), latSum.Seconds()), unit: "fraction", n: n},
		latencyPercentile("loadgen.latency_p90_ms", lat, 90),
		latencyPercentile("loadgen.latency_p99_ms", lat, 99),
		{name: "loadgen.late_p99_ms", value: latePct, unit: "ms", n: n},
		{name: "loadgen.bytes_per_op", value: bytesRead / ops, unit: "B", n: n},
		{name: "runtime.gc_cpu_frac", value: ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), unit: "fraction", n: n},
		{name: "runtime.gc_per_op", value: float64(after.numGC-before.numGC) / ops, unit: "count", n: n},
		{name: "runtime.alloc_mb_per_op", value: float64(after.totalAlloc-before.totalAlloc) / 1e6 / ops, unit: "MB", n: n},
		{name: "runtime.heap_peak_mb", value: float64(heapPeak) / 1e6, unit: "MB", n: n},
	}
}

// overheadMetric estimates what tracing added to the timed phase: the
// spans it recorded times the measured cost of recording one, as a share
// of the time the ops took.
func overheadMetric(ph phase, spans int) metric {
	t := newTracer()
	const calib = 20000
	start := time.Now()
	for i := 0; i < calib; i++ {
		t.end(t.start("calibrate", -1, -1))
	}
	perSpan := float64(time.Since(start)) / calib
	var latSum float64
	for _, s := range ph.samples {
		latSum += float64(s.latency)
	}
	return metric{name: "bench.trace_overhead_pct", value: 100 * ratio(float64(spans)*perSpan, latSum), unit: "%", n: spans}
}

// writeTraceFiles writes a traced run's spans and per-layer numbers, with
// each span name's total and self time, into dir.
func writeTraceFiles(dir string, r *workloadRun) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type byName struct {
		Count   int     `json:"count"`
		TotalMS float64 `json:"total_ms"`
		SelfMS  float64 `json:"self_ms"`
	}
	names := map[string]*byName{}
	self := selfTimes(r.spans)
	for i, s := range r.spans {
		b := names[s.Name]
		if b == nil {
			b = &byName{}
			names[s.Name] = b
		}
		b.Count++
		b.TotalMS += float64(s.End-s.Start) / 1e6
		b.SelfMS += float64(self[i]) / 1e6
	}
	layers := struct {
		Workload string                 `json:"workload"`
		Metrics  map[string]metricValue `json:"metrics"`
		Spans    map[string]*byName     `json:"spans"`
	}{r.workload, r.outcome(true).Metrics, names}
	write := func(file string, v any) error {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, file), append(b, '\n'), 0o644)
	}
	if err := write("spans.json", struct {
		Spans []span `json:"spans"`
	}{r.spans}); err != nil {
		return err
	}
	return write("layers.json", layers)
}
