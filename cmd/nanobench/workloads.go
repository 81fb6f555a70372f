package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"nanometer/internal/experiments"
	"nanometer/internal/jobs"
	"nanometer/internal/render"
	"nanometer/internal/repro"
	"nanometer/internal/result"
	"nanometer/internal/runner"
	"nanometer/internal/serve"
	"nanometer/internal/store"
	"nanometer/internal/trace"
)

// workload is one named input set of the benchmark. BENCHMARK.json and
// README.md give the reason each exists.
type workload struct {
	name  string
	setup func(ctx context.Context, e *env) (instance, error)
}

var workloads = []workload{
	{"report", setupReport},
	{"serve_cold", setupCold},
	{"serve_warm", setupWarm},
	{"sweep", setupSweep},
	{"trace_jobs", setupJobs},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale sizes the workloads. fullScale is the benchmark; the self-test
// runs a scale with the same code paths and only cheap computes.
type scale struct {
	// arts is what report, serve_cold and serve_warm compute and request.
	arts []repro.Artifact
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median.
	setupReps int
	// meshN is the mesh-n of sweep shapes A and B and of the n255 probes.
	meshN int
	// sweepC is the artifact selection of sweep shape C.
	sweepC string
	// traceIntervals is the length of every trace job.
	traceIntervals int
	// gates is the size of the probe netlist.
	gates int
}

func fullScale() scale {
	return scale{
		arts:           repro.Artifacts(),
		setupReps:      3,
		meshN:          255,
		sweepC:         "t2,f5,c7,c8",
		traceIntervals: 2_000_000,
		gates:          experiments.DefaultCircuitSetup().Gates,
	}
}

// env is what a workload's set-up and ops share within one run.
type env struct {
	seed   int64
	sc     scale
	golden []byte
	client *http.Client
	// tr is nil during set-up and in untraced runs.
	tr *tracer
	// corrupt makes every reference deliberately wrong, so that the
	// self-test can prove the output checks fail ops.
	corrupt bool
}

// reference returns b as the expected output of an op, or a corrupted
// copy of it when the env says so.
func (e *env) reference(b []byte) []byte {
	if !e.corrupt {
		return b
	}
	c := append([]byte(nil), b...)
	if len(c) == 0 {
		return []byte{'!'}
	}
	c[len(c)/2] ^= 0x20
	return c
}

// instance is a workload after set-up.
type instance interface {
	// measure runs the timed phase for about dur.
	measure(ctx context.Context, dur time.Duration) (phase, error)
	close()
}

// phase is the outcome of a timed phase.
type phase struct {
	samples []sample
	// elapsed is the timed wall time; set-up between serve_cold rounds is
	// excluded.
	elapsed time.Duration
	// server holds the growth of the daemon's /metrics during the phase
	// (nil when the workload runs no daemon).
	server counters
	// httpTime is the client-side time of the phase's HTTP requests where
	// it is not the ops' own latency: serve_cold's rounds, whose two
	// clients' requests overlap.
	httpTime time.Duration
	// jobWait and jobRun sum the queue wait and run time of trace jobs, as
	// the jobs' own snapshots report them.
	jobWait, jobRun time.Duration
}

// timeDaemon runs a timed phase against d and records the growth of its
// counters.
func timeDaemon(ctx context.Context, e *env, d *daemon, run func() ([]sample, time.Duration)) (phase, error) {
	before, err := scrape(ctx, e.client, d.base)
	if err != nil {
		return phase{}, err
	}
	s, elapsed := run()
	after, err := scrape(ctx, e.client, d.base)
	if err != nil {
		return phase{}, err
	}
	c := counters{}
	c.add(before, after)
	return phase{samples: s, elapsed: elapsed, server: c}, nil
}

func sameBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("%s: %d bytes differ from the %d-byte reference at byte %d", what, len(got), len(want), i)
}

// wholeRegistry reports whether arts is the full artifact registry, whose
// text report is the golden file itself.
func wholeRegistry(arts []repro.Artifact) bool { return len(arts) == len(repro.Artifacts()) }

// checkGolden checks per-artifact texts, in registry order, against the
// golden report: for the whole registry their concatenation must equal it
// byte for byte, for a subset each must occur in it in order.
func checkGolden(golden []byte, arts []repro.Artifact, texts [][]byte) error {
	if wholeRegistry(arts) {
		return sameBytes("artifact texts against the golden report", bytes.Join(texts, nil), golden)
	}
	rest := golden
	for i, t := range texts {
		at := bytes.Index(rest, t)
		if at < 0 {
			return fmt.Errorf("text of %s does not occur in the golden report in registry order", arts[i].ID)
		}
		rest = rest[at+len(t):]
	}
	return nil
}

// renderTexts renders each artifact as `nanorepro -only <id>` prints it,
// through the compute cache.
func renderTexts(arts []repro.Artifact) ([][]byte, error) {
	out := make([][]byte, len(arts))
	for i, a := range arts {
		var buf bytes.Buffer
		if err := a.Render(&buf, repro.Options{}); err != nil {
			return nil, fmt.Errorf("rendering %s: %w", a.ID, err)
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// ---- report --------------------------------------------------------------

// reportRun renders the full text report in-process, as cmd/nanorepro does.
type reportRun struct {
	e    *env
	want []byte
}

func setupReport(ctx context.Context, e *env) (instance, error) {
	want := e.golden
	if !wholeRegistry(e.sc.arts) {
		texts, err := renderTexts(e.sc.arts)
		if err != nil {
			return nil, err
		}
		if err := checkGolden(e.golden, e.sc.arts, texts); err != nil {
			return nil, err
		}
		want = bytes.Join(texts, nil)
	}
	r := &reportRun{e: e, want: want}
	_, check, err := r.op(ctx, 0, -1)
	if err == nil {
		err = check()
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up report: %w", err)
	}
	r.want = e.reference(want)
	return r, nil
}

func (r *reportRun) measure(ctx context.Context, dur time.Duration) (phase, error) {
	s, elapsed := runFor(ctx, 1, dur, 1, r.op)
	return phase{samples: s, elapsed: elapsed}, nil
}

func (r *reportRun) close() {}

func (r *reportRun) op(ctx context.Context, _, seq int) (int, func() error, error) {
	out, err := renderReport(ctx, r.e.tr, r.e.sc.arts, seq)
	return len(out), func() error { return sameBytes("report", out, r.want) }, err
}

// renderReport renders the text report of arts on a GOMAXPROCS-worker
// runner pool with the compute cache bypassed, recording a span per
// artifact job and, inside it, one around the compute and one around the
// encode.
func renderReport(ctx context.Context, tr *tracer, arts []repro.Artifact, seq int) ([]byte, error) {
	opts := repro.Options{NoCache: true}
	root := tr.start("op.report", -1, seq)
	jobList := make([]runner.Job, len(arts))
	for i, a := range arts {
		a := a
		jobList[i] = runner.Job{ID: a.ID, Run: func(w io.Writer) error {
			job := tr.start("runner.job/"+a.ID, root, seq)
			defer tr.end(job)
			sp := tr.start("repro.compute/"+a.ID, job, seq)
			res, err := a.ComputeCached(opts)
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.start("render.text/"+a.ID, job, seq)
			defer tr.end(sp)
			return render.Text{}.Encode(w, res)
		}}
	}
	var buf bytes.Buffer
	results, err := runner.Pool{Workers: runtime.GOMAXPROCS(0)}.RunToContext(ctx, &buf, jobList)
	tr.end(root)
	if err == nil {
		err = runner.Errs(results)
	}
	return buf.Bytes(), err
}

// ---- serve_cold ----------------------------------------------------------

// coldRun measures fresh replicas: every round gets an empty compute cache,
// an empty result store and a new daemon, set up outside the timed window,
// and the op is the whole round. (Per request, half the latencies are
// sub-millisecond cache hits whose time depends on how busy the other core
// is with the heavy computes; a round is steady from run to run.)
type coldRun struct {
	e    *env
	rng  *rand.Rand
	refs [][]byte
}

func setupCold(ctx context.Context, e *env) (instance, error) {
	r := &coldRun{e: e, rng: rand.New(rand.NewSource(e.seed))}
	n := len(e.sc.arts)
	var bodies [clients][][]byte
	for c := range bodies {
		bodies[c] = make([][]byte, n)
	}
	s, _, _, err := r.round(ctx, -1, func(c, i int, body []byte) error {
		bodies[c][i] = body
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := firstError(s); err != nil {
		return nil, fmt.Errorf("discarded round: %w", err)
	}
	// The round left every result in the compute cache, so rendering the
	// references costs no model work.
	texts, err := renderTexts(e.sc.arts)
	if err != nil {
		return nil, err
	}
	if err := checkGolden(e.golden, e.sc.arts, texts); err != nil {
		return nil, err
	}
	for c := range bodies {
		for i, b := range bodies[c] {
			if err := sameBytes("discarded round "+e.sc.arts[i].ID, b, texts[i]); err != nil {
				return nil, err
			}
		}
	}
	r.refs = make([][]byte, n)
	for i, t := range texts {
		r.refs[i] = e.reference(t)
	}
	return r, nil
}

// round runs cold round seq: each client fetches every artifact as text.
// check receives every 200 body.
func (r *coldRun) round(ctx context.Context, seq int, check func(c, i int, body []byte) error) ([]sample, time.Duration, counters, error) {
	dir, err := os.MkdirTemp("", "nanobench-store-")
	if err != nil {
		return nil, 0, nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		return nil, 0, nil, err
	}
	repro.ResetCache()
	d, err := startDaemon(serve.Config{Artifacts: r.e.sc.arts, Store: st})
	if err != nil {
		return nil, 0, nil, err
	}
	defer d.close()
	defer r.e.client.CloseIdleConnections()
	arts := r.e.sc.arts
	// Client 0 walks a seeded order and client 1 walks it backwards, so the
	// two heavy computes (c3 and c6) are reached by the two clients at
	// mirrored points of the round, and how long a round takes depends
	// little on the seed. Every artifact is still requested by both.
	order := r.rng.Perm(len(arts))
	sp := r.e.tr.start("op.serve_cold", -1, seq)
	defer r.e.tr.end(sp)
	start := time.Now()
	s := closedLoop(ctx, clients, func(_, k int) bool { return k < len(arts) },
		func(ctx context.Context, c, k int) (int, func() error, error) {
			i := order[k]
			if c == 1 {
				i = order[len(order)-1-k]
			}
			get := r.e.tr.start("serve_cold.get", sp, seq)
			x, err := do(ctx, r.e.client, http.MethodGet, d.base+"/api/v1/artifacts/"+arts[i].ID+"?format=text", nil, nil)
			r.e.tr.end(get)
			return len(x.body), func() error {
				if err := x.expect(http.StatusOK, "GET "+arts[i].ID); err != nil {
					return err
				}
				return check(c, i, x.body)
			}, err
		})
	elapsed := time.Since(start)
	// A fresh daemon counts from zero, so its counters after the round
	// are the round's.
	cnt, err := scrape(ctx, r.e.client, d.base)
	return s, elapsed, cnt, err
}

// measure runs rounds until their timed windows add up to dur. A round's
// sample fails if any of its requests did; its lateness is the untimed
// set-up and teardown around it.
func (r *coldRun) measure(ctx context.Context, dur time.Duration) (phase, error) {
	ph := phase{server: counters{}}
	prev := time.Now()
	for seq := 0; ph.elapsed < dur && ctx.Err() == nil; seq++ {
		s, elapsed, cnt, err := r.round(ctx, seq, func(_, i int, body []byte) error {
			return sameBytes("GET "+r.e.sc.arts[i].ID, body, r.refs[i])
		})
		if err != nil {
			return phase{}, err
		}
		round := sample{latency: elapsed, late: time.Since(prev) - elapsed, err: firstError(s)}
		for _, x := range s {
			round.bytes += x.bytes
			ph.httpTime += x.latency
		}
		prev = time.Now()
		ph.samples = append(ph.samples, round)
		ph.elapsed += elapsed
		ph.server.add(nil, cnt)
	}
	return ph, nil
}

func (r *coldRun) close() {}

func firstError(s []sample) error {
	for _, x := range s {
		if x.err != nil {
			return x.err
		}
	}
	return nil
}

// ---- serve_warm ----------------------------------------------------------

// warmRun sends a request mix as fast as 2 closed-loop clients go to a
// daemon whose cache was filled in set-up: every request is a cache hit, a
// 304 or a report encode. The mix (uniform over representations, a tenth
// revalidations, a hundredth full reports) is assumed; no recorded daemon
// traffic stands behind it.
type warmRun struct {
	e      *env
	d      *daemon
	reqs   []warmReq
	report []byte
	plan   []int32
	// next numbers the requests of both clients, which pick the mix.
	next atomic.Int64
}

// warmReq is one artifact × format representation with its expected body
// and ETag.
type warmReq struct {
	path string
	want []byte
	etag string
}

var warmFormats = []string{"text", "json", "csv"}

const warmBlocks = 256

func setupWarm(ctx context.Context, e *env) (instance, error) {
	repro.ResetCache()
	d, err := startDaemon(serve.Config{Artifacts: e.sc.arts})
	if err != nil {
		return nil, err
	}
	r := &warmRun{e: e, d: d}
	if err := r.fill(ctx); err != nil {
		d.close()
		return nil, err
	}
	// Every representation is requested once per block of len(reqs)
	// requests, in a seeded order per block; the plan repeats after
	// warmBlocks blocks.
	rng := rand.New(rand.NewSource(e.seed))
	for b := 0; b < warmBlocks; b++ {
		for _, i := range rng.Perm(len(r.reqs)) {
			r.plan = append(r.plan, int32(i))
		}
	}
	return r, nil
}

// fill requests every representation once, which computes every artifact,
// and checks the bodies against the encoders cmd/nanorepro uses.
func (r *warmRun) fill(ctx context.Context) error {
	arts := r.e.sc.arts
	for _, a := range arts {
		for _, f := range warmFormats {
			r.reqs = append(r.reqs, warmReq{path: "/api/v1/artifacts/" + a.ID + "?format=" + f})
		}
	}
	got := make([]exchange, len(r.reqs))
	s := closedLoop(ctx, clients, func(c, seq int) bool { return seq*clients+c < len(r.reqs) },
		func(ctx context.Context, c, seq int) (int, func() error, error) {
			i := seq*clients + c
			x, err := do(ctx, r.e.client, http.MethodGet, r.d.base+r.reqs[i].path, nil, nil)
			got[i] = x
			return len(x.body), func() error { return x.expect(http.StatusOK, "GET "+r.reqs[i].path) }, err
		})
	if err := firstError(s); err != nil {
		return fmt.Errorf("filling the cache: %w", err)
	}
	texts, err := renderTexts(arts)
	if err != nil {
		return err
	}
	if err := checkGolden(r.e.golden, arts, texts); err != nil {
		return err
	}
	for ai, a := range arts {
		res, err := a.ComputeCached(repro.Options{})
		if err != nil {
			return err
		}
		var js, cs bytes.Buffer
		if err := (render.JSON{Indent: "  "}).EncodeReport(&js, &result.Report{Artifacts: []*result.Result{res}}); err != nil {
			return err
		}
		if err := (render.CSV{}).Encode(&cs, res); err != nil {
			return err
		}
		for fi, want := range [][]byte{texts[ai], js.Bytes(), cs.Bytes()} {
			i := ai*len(warmFormats) + fi
			if err := sameBytes("GET "+r.reqs[i].path, got[i].body, want); err != nil {
				return err
			}
			if got[i].etag == "" {
				return fmt.Errorf("GET %s: no ETag", r.reqs[i].path)
			}
			r.reqs[i].want, r.reqs[i].etag = r.e.reference(want), got[i].etag
		}
		var rep result.Report
		if err := decodeStrict(got[ai*len(warmFormats)+1].body, &rep); err != nil {
			return fmt.Errorf("%s as json: %w", a.ID, err)
		}
		if len(rep.Artifacts) != 1 || rep.Artifacts[0].Validate() != nil {
			return fmt.Errorf("%s as json: not one valid result", a.ID)
		}
	}
	x, err := do(ctx, r.e.client, http.MethodGet, r.d.base+"/api/v1/report", nil, nil)
	if err != nil {
		return err
	}
	if err := x.expect(http.StatusOK, "GET /api/v1/report"); err != nil {
		return err
	}
	if err := sameBytes("GET /api/v1/report", x.body, bytes.Join(texts, nil)); err != nil {
		return err
	}
	r.report = r.e.reference(x.body)
	return nil
}

func (r *warmRun) measure(ctx context.Context, dur time.Duration) (phase, error) {
	return timeDaemon(ctx, r.e, r.d, func() ([]sample, time.Duration) { return runFor(ctx, clients, dur, 1, r.op) })
}

// op sends the next request of the plan: one in a hundred is a full
// report, one in ten revalidates its representation's ETag, the rest are
// plain GETs.
func (r *warmRun) op(ctx context.Context, _, _ int) (int, func() error, error) {
	i := int(r.next.Add(1) - 1)
	sp := r.e.tr.start("op.serve_warm", -1, i)
	defer r.e.tr.end(sp)
	if i%100 == 50 {
		x, err := do(ctx, r.e.client, http.MethodGet, r.d.base+"/api/v1/report", nil, nil)
		return len(x.body), func() error {
			if err := x.expect(http.StatusOK, "GET /api/v1/report"); err != nil {
				return err
			}
			return sameBytes("GET /api/v1/report", x.body, r.report)
		}, err
	}
	q := r.reqs[r.plan[i%len(r.plan)]]
	if i%10 == 9 {
		x, err := do(ctx, r.e.client, http.MethodGet, r.d.base+q.path, nil, map[string]string{"If-None-Match": q.etag})
		return len(x.body), func() error {
			if err := x.expect(http.StatusNotModified, "revalidating "+q.path); err != nil {
				return err
			}
			if x.etag != q.etag || len(x.body) != 0 {
				return fmt.Errorf("revalidating %s: 304 with ETag %s and %d body bytes", q.path, x.etag, len(x.body))
			}
			return nil
		}, err
	}
	x, err := do(ctx, r.e.client, http.MethodGet, r.d.base+q.path, nil, nil)
	return len(x.body), func() error {
		if err := x.expect(http.StatusOK, "GET "+q.path); err != nil {
			return err
		}
		if x.etag != q.etag {
			return fmt.Errorf("GET %s: ETag %s, want %s", q.path, x.etag, q.etag)
		}
		return sameBytes("GET "+q.path, x.body, q.want)
	}, err
}

func (r *warmRun) close() { r.d.close() }

// ---- sweep ---------------------------------------------------------------

// sweepShape is one kind of scenario sweep the sweep workload posts.
type sweepShape struct {
	param  string
	steps  int
	nodeNM int
	only   []string
	meshN  int
}

// sweepShapes are A: a Vdd sweep, whose nine meshes differ and take the
// lockstep batch solve; B: a θja sweep, whose nine meshes are identical and
// take the prime-dedupe path; C: an oxide sweep at 50 nm, whose time goes
// to scenario resolution and device calibration.
func sweepShapes(sc scale) [3]sweepShape {
	return [3]sweepShape{
		{param: "vdd", steps: 9, nodeNM: 35, only: []string{"c8"}, meshN: sc.meshN},
		{param: "theta_ja", steps: 9, nodeNM: 35, only: []string{"c8"}, meshN: sc.meshN},
		{param: "tox", steps: 5, nodeNM: 50, only: strings.Split(sc.sweepC, ",")},
	}
}

// sweepCall is one planned sweep: its document, URL query and the
// variant names the response must carry in grid order.
type sweepCall struct {
	body  []byte
	query string
	names []string
	only  []string
}

func (sh sweepShape) call(name string, spanPct float64) sweepCall {
	c := sweepCall{only: sh.only}
	c.body = []byte(fmt.Sprintf(`{"name":%q,"sweep":{"param":%q,"steps":%d,"span_pct":%g,"nodes":[%d]}}`,
		name, sh.param, sh.steps, spanPct, sh.nodeNM))
	c.query = "only=" + strings.Join(sh.only, ",")
	if sh.meshN > 0 {
		c.query += fmt.Sprintf("&mesh-n=%d", sh.meshN)
	}
	// The variant naming rule of scenario.Variants, restated as the oracle.
	span := spanPct / 100
	for i := 0; i < sh.steps; i++ {
		f := 1 - span + 2*span*float64(i)/float64(sh.steps-1)
		c.names = append(c.names, fmt.Sprintf("%s/%s=%.3f", name, sh.param, f))
	}
	return c
}

// flushEvery is how many sweeps run between cache flushes: ten sweeps add
// at most 200 entries, which keeps the compute cache below its 256-entry
// bound, past which computes bypass it.
const flushEvery = 10

// sweepRun posts sweeps from one closed-loop caller. The batch solve of
// shape A already spreads over every core; a second caller would make each
// sweep's latency depend on which shape the other happened to run beside
// it.
type sweepRun struct {
	e      *env
	d      *daemon
	shapes [3]sweepShape
	rng    *rand.Rand
	block  []int
}

func setupSweep(ctx context.Context, e *env) (instance, error) {
	d, err := startDaemon(serve.Config{})
	if err != nil {
		return nil, err
	}
	r := &sweepRun{e: e, d: d, shapes: sweepShapes(e.sc), rng: rand.New(rand.NewSource(e.seed))}
	for i, sh := range r.shapes {
		if err := r.post(ctx, sh.call(fmt.Sprintf("warm-%d", i), 20)); err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
	}
	if err := r.flush(ctx); err != nil {
		d.close()
		return nil, err
	}
	return r, nil
}

// post sends one sweep and checks it immediately (set-up only).
func (r *sweepRun) post(ctx context.Context, c sweepCall) error {
	x, err := do(ctx, r.e.client, http.MethodPost, r.d.base+"/api/v1/scenarios?"+c.query, c.body, nil)
	if err != nil {
		return err
	}
	return checkSweep(x, c)
}

func (r *sweepRun) flush(ctx context.Context) error {
	x, err := do(ctx, r.e.client, http.MethodPost, r.d.base+"/api/v1/cache/flush", nil, nil)
	if err != nil {
		return err
	}
	return x.expect(http.StatusOK, "POST /api/v1/cache/flush")
}

func (r *sweepRun) measure(ctx context.Context, dur time.Duration) (phase, error) {
	return timeDaemon(ctx, r.e, r.d, func() ([]sample, time.Duration) { return runFor(ctx, 1, dur, len(r.shapes), r.op) })
}

// op posts the next sweep. Shapes come in seeded blocks of one of
// each, so every workload seed runs them in equal shares; span_pct is
// seeded in [10, 25] and the name is unique, so every variant computes.
// (An oxide 27 % thicker puts the 50 nm drive target out of the device
// calibration's reach, and shape C's variants would fail.)
func (r *sweepRun) op(ctx context.Context, _, seq int) (int, func() error, error) {
	if seq%len(r.shapes) == 0 {
		r.block = r.rng.Perm(len(r.shapes))
	}
	sh := r.shapes[r.block[seq%len(r.shapes)]]
	spanPct := float64(100+r.rng.Intn(151)) / 10
	call := sh.call(fmt.Sprintf("b%d-%d", r.e.seed, seq), spanPct)
	for i, n := range call.names {
		call.names[i] = string(r.e.reference([]byte(n)))
	}
	sp := r.e.tr.start("op.sweep/"+sh.param, -1, seq)
	x, err := do(ctx, r.e.client, http.MethodPost, r.d.base+"/api/v1/scenarios?"+call.query, call.body, nil)
	r.e.tr.end(sp)
	return len(x.body), func() error {
		if err := checkSweep(x, call); err != nil {
			return err
		}
		// The flush after every flushEvery-th sweep is not an op.
		if (seq+1)%flushEvery == 0 {
			return r.flush(ctx)
		}
		return nil
	}, err
}

func (r *sweepRun) close() { r.d.close() }

// variantLine is one NDJSON line of a scenarios response.
type variantLine struct {
	Scenario  string           `json:"scenario"`
	Key       string           `json:"key"`
	Artifacts []*result.Result `json:"artifacts"`
	Error     string           `json:"error"`
}

// checkSweep checks a scenarios response: one strictly decodable line per
// variant in grid order, no error, and one valid result per requested
// artifact.
func checkSweep(x exchange, c sweepCall) error {
	if err := x.expect(http.StatusOK, "POST /api/v1/scenarios"); err != nil {
		return err
	}
	lines := bytes.Split(bytes.TrimSuffix(x.body, []byte("\n")), []byte("\n"))
	if len(lines) != len(c.names) {
		return fmt.Errorf("sweep: %d lines, want %d", len(lines), len(c.names))
	}
	for k, ln := range lines {
		var v variantLine
		if err := decodeStrict(ln, &v); err != nil {
			return fmt.Errorf("sweep line %d: %w", k, err)
		}
		if v.Error != "" {
			return fmt.Errorf("sweep variant %s: %s", v.Scenario, v.Error)
		}
		if v.Scenario != c.names[k] {
			return fmt.Errorf("sweep line %d is variant %q, want %q", k, v.Scenario, c.names[k])
		}
		if len(v.Artifacts) != len(c.only) {
			return fmt.Errorf("sweep variant %s: %d results, want %d", v.Scenario, len(v.Artifacts), len(c.only))
		}
		for j, res := range v.Artifacts {
			if res.ID != c.only[j] || res.Scenario != v.Scenario {
				return fmt.Errorf("sweep variant %s: result %d is %s under %q", v.Scenario, j, res.ID, res.Scenario)
			}
			if err := res.Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// decodeStrict decodes one JSON document, rejecting unknown fields and
// trailing data.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the JSON document")
	}
	return nil
}

// ---- trace_jobs ----------------------------------------------------------

// traceRef is one generated trace the jobs cycle through, with the claim
// findings trace.Run computes for it in-process.
type traceRef struct {
	kind string
	seed int64
	want []byte
}

type jobsRun struct {
	e      *env
	d      *daemon
	refs   []traceRef
	rngs   [clients]*rand.Rand
	blocks [clients][]int
	waitNS atomic.Int64
	runNS  atomic.Int64
}

// traceDoc is a trace document: a virus or a seeded workload generator of
// the given length at the 50 nm node.
func traceDoc(name, kind string, intervals int, seed int64) []byte {
	gen := fmt.Sprintf(`{"kind":"virus","intervals":%d}`, intervals)
	if kind == "workload" {
		gen = fmt.Sprintf(`{"kind":"workload","intervals":%d,"typical_fraction":0.75,"seed":%d}`, intervals, seed)
	}
	return []byte(fmt.Sprintf(`{"name":%q,"dt_seconds":0.01,"node_nm":50,"generator":%s}`, name, gen))
}

// findings returns the JSON of a trace result's claim findings, the part
// of the result that does not depend on the trace's name.
func findings(res *result.Result) ([]byte, error) {
	for _, it := range res.Items {
		if it.Claim != nil {
			return json.Marshal(it.Claim.Findings)
		}
	}
	return nil, fmt.Errorf("trace result %s has no claim", res.ID)
}

func setupJobs(ctx context.Context, e *env) (instance, error) {
	rng := rand.New(rand.NewSource(e.seed))
	refs := []traceRef{{kind: "virus"}, {kind: "workload", seed: rng.Int63n(1 << 30)}, {kind: "workload", seed: rng.Int63n(1 << 30)}}
	for i := range refs {
		tr, err := trace.Parse(traceDoc("ref", refs[i].kind, e.sc.traceIntervals, refs[i].seed))
		if err != nil {
			return nil, err
		}
		res, err := tr.Run(ctx, nil)
		if err != nil {
			return nil, err
		}
		want, err := findings(res)
		if err != nil {
			return nil, err
		}
		refs[i].want = want
	}
	d, err := startDaemon(serve.Config{})
	if err != nil {
		return nil, err
	}
	r := &jobsRun{e: e, d: d, refs: refs}
	for c := range r.rngs {
		r.rngs[c] = rand.New(rand.NewSource(e.seed*clients + int64(c)))
	}
	_, check, err := r.job(ctx, "warm", -1, r.refs[0])
	if err == nil {
		err = check()
	}
	if err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	for i := range r.refs {
		r.refs[i].want = e.reference(r.refs[i].want)
	}
	return r, nil
}

func (r *jobsRun) measure(ctx context.Context, dur time.Duration) (phase, error) {
	r.waitNS.Store(0)
	r.runNS.Store(0)
	ph, err := timeDaemon(ctx, r.e, r.d, func() ([]sample, time.Duration) { return runFor(ctx, clients, dur, len(r.refs), r.op) })
	ph.jobWait, ph.jobRun = time.Duration(r.waitNS.Load()), time.Duration(r.runNS.Load())
	return ph, err
}

// op runs the client's next job. Each client cycles through the reference
// traces in seeded blocks of one of each, so every workload seed runs them
// in equal shares.
func (r *jobsRun) op(ctx context.Context, c, seq int) (int, func() error, error) {
	if seq%len(r.refs) == 0 {
		r.blocks[c] = r.rngs[c].Perm(len(r.refs))
	}
	return r.job(ctx, fmt.Sprintf("j%d-%d-%d", r.e.seed, c, seq), seq*clients+c, r.refs[r.blocks[c][seq%len(r.refs)]])
}

// job submits one trace job under a unique name, follows its progress
// stream to the end, and fetches its result.
func (r *jobsRun) job(ctx context.Context, name string, opID int, ref traceRef) (int, func() error, error) {
	tr := r.e.tr
	sp := tr.start("op.trace_jobs", -1, opID)
	defer tr.end(sp)
	step := tr.start("jobs.submit", sp, opID)
	sub, err := do(ctx, r.e.client, http.MethodPost, r.d.base+"/api/v1/jobs", traceDoc(name, ref.kind, r.e.sc.traceIntervals, ref.seed), nil)
	tr.end(step)
	if err != nil {
		return 0, nil, err
	}
	if err := sub.expect(http.StatusAccepted, "POST /api/v1/jobs"); err != nil {
		return len(sub.body), nil, err
	}
	var snap jobs.Snapshot
	if err := decodeStrict(sub.body, &snap); err != nil {
		return len(sub.body), nil, fmt.Errorf("job submission: %w", err)
	}
	step = tr.start("jobs.stream", sp, opID)
	stream, err := do(ctx, r.e.client, http.MethodGet, r.d.base+"/api/v1/jobs/"+snap.ID+"/stream", nil, nil)
	tr.end(step)
	if err != nil {
		return len(sub.body), nil, err
	}
	step = tr.start("jobs.result", sp, opID)
	res, err := do(ctx, r.e.client, http.MethodGet, r.d.base+"/api/v1/jobs/"+snap.ID+"/result", nil, nil)
	tr.end(step)
	n := len(sub.body) + len(stream.body) + len(res.body)
	return n, func() error { return r.check(stream, res, ref) }, err
}

// check checks a job's progress stream (strict progress lines, then a done
// snapshot covering the whole trace) and its result against the reference
// findings, and records the job's queue wait and run time.
func (r *jobsRun) check(stream, res exchange, ref traceRef) error {
	if err := stream.expect(http.StatusOK, "job stream"); err != nil {
		return err
	}
	if err := res.expect(http.StatusOK, "job result"); err != nil {
		return err
	}
	lines := bytes.Split(bytes.TrimSuffix(stream.body, []byte("\n")), []byte("\n"))
	if len(lines) < 2 {
		return fmt.Errorf("job stream: %d lines, want progress and a final snapshot", len(lines))
	}
	var last trace.Progress
	for _, ln := range lines[:len(lines)-1] {
		if err := decodeStrict(ln, &last); err != nil {
			return fmt.Errorf("job stream progress: %w", err)
		}
	}
	if last.Done != r.e.sc.traceIntervals || last.Total != r.e.sc.traceIntervals {
		return fmt.Errorf("job stream ends at %d of %d intervals, want %d", last.Done, last.Total, r.e.sc.traceIntervals)
	}
	var snap jobs.Snapshot
	if err := decodeStrict(lines[len(lines)-1], &snap); err != nil {
		return fmt.Errorf("job stream snapshot: %w", err)
	}
	if snap.State != jobs.StateDone || snap.StartedAt == nil || snap.FinishedAt == nil {
		return fmt.Errorf("job %s ended %s: %s", snap.ID, snap.State, snap.Error)
	}
	var got result.Result
	if err := decodeStrict(res.body, &got); err != nil {
		return fmt.Errorf("job result: %w", err)
	}
	if err := got.Validate(); err != nil {
		return err
	}
	f, err := findings(&got)
	if err != nil {
		return err
	}
	if err := sameBytes("job "+snap.ID+" findings", f, ref.want); err != nil {
		return err
	}
	r.waitNS.Add(int64(snap.StartedAt.Sub(snap.CreatedAt)))
	r.runNS.Add(int64(snap.FinishedAt.Sub(*snap.StartedAt)))
	return nil
}

func (r *jobsRun) close() { r.d.close() }
