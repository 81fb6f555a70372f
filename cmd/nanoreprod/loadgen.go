package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nanometer/internal/repro"
	"nanometer/internal/scenario"
	"nanometer/internal/serve"
)

// runLoadgen fires a concurrent artifact-request mix at a daemon and
// prints a throughput/latency/cache summary — the serving-layer companion
// to cmd/benchjson's solver numbers in `make bench`. With no -base it
// starts its own in-process daemon first, so a single command measures
// the full stack cold-to-warm.
func runLoadgen() error {
	every, scnBody, err := loadgenScenarioMix()
	if err != nil {
		return err
	}
	baseURL, shutdown, err := loadgenBase()
	if err != nil {
		return err
	}
	defer shutdown()

	sum := fire(baseURL, fireConfig{
		requests:      *requests,
		workers:       *concurrency,
		targets:       loadgenTargets(),
		format:        *lgFormat,
		meshN:         *lgMeshN,
		scenarioEvery: every,
		scenarioBody:  scnBody,
	})
	fmt.Printf("loadgen: %d requests (%d targets × format=%s), %d clients, %d errors\n",
		sum.requests, len(loadgenTargets()), *lgFormat, *concurrency, len(sum.failed))
	if sum.scenarioPosts > 0 {
		fmt.Printf("loadgen: %d of those were scenario posts (every %d-th request → POST /api/v1/scenarios)\n",
			sum.scenarioPosts, every)
	}
	fmt.Printf("loadgen: wall %.3fs, %.1f req/s, %.1f KB read\n",
		sum.elapsed.Seconds(), float64(len(sum.ok))/sum.elapsed.Seconds(), float64(sum.bytes)/1024)
	if len(sum.ok) > 0 {
		fmt.Printf("loadgen: latency p50 %s  p90 %s  p99 %s  max %s\n",
			pct(sum.ok, 50), pct(sum.ok, 90), pct(sum.ok, 99), sum.ok[len(sum.ok)-1])
	}
	// Failed requests are a distribution of their own — folding them into
	// the success percentiles (or dropping them silently) would let a
	// fast-failing server look fast.
	if len(sum.failed) > 0 {
		fmt.Printf("loadgen: failed-request latency p50 %s  p99 %s  max %s\n",
			pct(sum.failed, 50), pct(sum.failed, 99), sum.failed[len(sum.failed)-1])
	}
	// The server-side view: cache/store effectiveness, singleflight
	// collapse, solver work, and admission pressure.
	client := &http.Client{Timeout: *timeout + 5*time.Second}
	if err := printMetrics(client, baseURL,
		"nanoreprod_cache_", "nanoreprod_store_", "nanoreprod_singleflight_",
		"nanoreprod_mesh_solves_total", "nanoreprod_scenario_",
		"nanoreprod_gate_rejections_total", "nanoreprod_request_timeouts_total"); err != nil {
		return fmt.Errorf("scraping %s/metrics: %w", baseURL, err)
	}
	return nil
}

// loadgenScenarioMix resolves -scenario-mix into a deterministic stride
// (every n-th request posts a scenario, 0 = never) plus the document body.
// The body is parsed client-side first so a bad -scenario-file fails the
// run up front instead of producing a wall of 400s in the summary.
func loadgenScenarioMix() (every int, body []byte, err error) {
	mix := *scenarioMix
	if mix == 0 {
		return 0, nil, nil
	}
	if mix < 0 || mix > 1 {
		return 0, nil, fmt.Errorf("loadgen: -scenario-mix %g out of range (0, 1]", mix)
	}
	every = int(1/mix + 0.5)
	if every < 1 {
		every = 1
	}
	if *scenarioFile != "" {
		body, err = os.ReadFile(*scenarioFile)
		if err != nil {
			return 0, nil, err
		}
	} else {
		body = []byte(`{"name":"loadgen","sweep":{"param":"vdd","steps":3,"span_pct":10,"nodes":[70]}}`)
	}
	if _, err := scenario.Parse(body); err != nil {
		return 0, nil, fmt.Errorf("loadgen: scenario document: %w", err)
	}
	return every, body, nil
}

// splitList parses a comma-separated flag into its non-empty elements.
func splitList(v string) []string {
	var out []string
	for _, p := range strings.Split(v, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// loadgenTargets resolves -targets (empty = the whole registry).
func loadgenTargets() []string {
	clean := splitList(*targets)
	if len(clean) == 0 {
		for _, a := range repro.Artifacts() {
			clean = append(clean, a.ID)
		}
	}
	return clean
}

// loadgenBase returns the base URL to fire at: the -base daemon when
// given, otherwise a freshly started in-process daemon (over the -store
// directory when one is set).
func loadgenBase() (baseURL string, shutdown func(), err error) {
	if *base != "" {
		return strings.TrimRight(*base, "/"), func() {}, nil
	}
	st, err := openStore()
	if err != nil {
		return "", nil, err
	}
	s := serve.New(serve.Config{GateUnits: *gate, Timeout: *timeout, Jobs: *jobs, Store: st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: s.Handler()}
	// Serve returns once shutdown closes the server; the goroutine cannot
	// outlive the loadgen run.
	//lint:allow goexit srv.Serve exits when shutdown closes srv
	go srv.Serve(ln)
	baseURL = "http://" + ln.Addr().String()
	fmt.Printf("loadgen: started an in-process daemon: %s\n", baseURL)
	return baseURL, func() { srv.Close() }, nil
}

// fireConfig parameterizes one load round.
type fireConfig struct {
	requests int
	workers  int
	targets  []string
	format   string
	meshN    int
	// scenarioEvery > 0 turns every n-th request into a POST of
	// scenarioBody to /api/v1/scenarios?only=<target> — the write-path
	// share of a mixed workload.
	scenarioEvery int
	scenarioBody  []byte
}

// fireSummary is the client-side outcome of one round; ok and failed are
// sorted latency distributions.
type fireSummary struct {
	requests      int
	elapsed       time.Duration
	ok, failed    []time.Duration
	bytes         int64
	scenarioPosts int
}

// fire runs the request mix against baseURL, cycling request i over
// targets[i%len].
func fire(baseURL string, cfg fireConfig) fireSummary {
	n := cfg.requests
	if n < 1 {
		n = 1
	}
	workers := cfg.workers
	if workers < 1 {
		workers = 1
	}
	client := &http.Client{Timeout: *timeout + 5*time.Second}
	var (
		next      atomic.Int64
		bytesRead atomic.Int64
		scnPosts  atomic.Int64
		mu        sync.Mutex
		ok        []time.Duration
		failed    []time.Duration
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			localOK := make([]time.Duration, 0, n/workers+1)
			var localFailed []time.Duration
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					break
				}
				id := cfg.targets[i%int64(len(cfg.targets))]
				var url string
				scn := cfg.scenarioEvery > 0 && i%int64(cfg.scenarioEvery) == 0
				if scn {
					url = fmt.Sprintf("%s/api/v1/scenarios?only=%s", baseURL, id)
				} else {
					url = fmt.Sprintf("%s/api/v1/artifacts/%s?format=%s", baseURL, id, cfg.format)
				}
				if cfg.meshN > 0 {
					url += "&mesh-n=" + strconv.Itoa(cfg.meshN)
				}
				t0 := time.Now()
				var resp *http.Response
				var err error
				if scn {
					scnPosts.Add(1)
					resp, err = client.Post(url, "application/json", bytes.NewReader(cfg.scenarioBody))
				} else {
					resp, err = client.Get(url)
				}
				if err != nil {
					localFailed = append(localFailed, time.Since(t0))
					continue
				}
				nb, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					localFailed = append(localFailed, time.Since(t0))
					continue
				}
				bytesRead.Add(nb)
				localOK = append(localOK, time.Since(t0))
			}
			mu.Lock()
			ok = append(ok, localOK...)
			failed = append(failed, localFailed...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(ok, func(i, j int) bool { return ok[i] < ok[j] })
	sort.Slice(failed, func(i, j int) bool { return failed[i] < failed[j] })
	return fireSummary{requests: n, elapsed: elapsed, ok: ok, failed: failed,
		bytes: bytesRead.Load(), scenarioPosts: int(scnPosts.Load())}
}

// pct returns the nearest-rank percentile of a sorted sample: the smallest
// element with at least p% of the distribution at or below it, i.e. index
// ceil(p·N/100)−1 — for 10 samples p50 is element 4 (the 5th), not
// element 5 (which is the 60th percentile).
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p*len(sorted)+99)/100 - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx].Round(10 * time.Microsecond)
}

// printMetrics scrapes the daemon and echoes the sample lines matching any
// of the given prefixes.
func printMetrics(client *http.Client, baseURL string, prefixes ...string) error {
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(line, p) {
				fmt.Println("loadgen: metric", line)
				break
			}
		}
	}
	return sc.Err()
}
