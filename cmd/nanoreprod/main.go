// Command nanoreprod serves the reproduction over HTTP: the artifact
// registry cmd/nanorepro prints once per invocation becomes a long-lived
// queryable service (internal/serve) with result caching, ETag
// revalidation, weighted admission control, Prometheus metrics, and
// graceful shutdown.
//
// Endpoints:
//
//	GET  /api/v1/artifacts                    index (ids, titles, URLs)
//	GET  /api/v1/artifacts/{id}               one artifact; query params:
//	       format=text|json|csv (default text), mesh-n=N (c8 mesh),
//	       verbose=1, plot=1 (text only)
//	GET  /api/v1/report                       the full run, same params
//	POST /api/v1/scenarios                    compute under a scenario roadmap
//	       (body: scenario JSON; NDJSON out, one line per sweep variant;
//	       only=id,... and mesh-n=N as above)
//	POST /api/v1/cache/flush                  drop memoized results
//	GET  /healthz                             liveness probe
//	GET  /metrics                             Prometheus text format
//	GET  /debug/pprof/                        runtime profiles
//
// Artifact bytes are identical to cmd/nanorepro's output for the same
// options. Repeated requests compute once per process (the compute cache);
// If-None-Match with the returned ETag answers 304 without computing at
// all.
//
// The -loadgen mode turns the binary into its own load generator for
// `make bench`: it fires a concurrent request mix at a daemon (its own
// in-process instance by default, or -base URL) and reports throughput,
// latency percentiles, and the server's cache counters.
//
// Usage:
//
//	nanoreprod                        # serve on :8077
//	nanoreprod -addr :9000 -gate 16 -timeout 10s
//	nanoreprod -loadgen               # self-contained load run
//	nanoreprod -loadgen -base http://host:8077 -requests 500 -concurrency 32
//	nanoreprod -loadgen -scenario-mix 0.1      # 1 in 10 requests POSTs a scenario sweep
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"nanometer/internal/serve"
	"nanometer/internal/store"
)

var (
	addr    = flag.String("addr", ":8077", "listen address")
	gate    = flag.Int64("gate", 0, "admission-gate capacity in compute units (0 = max(8, 4×GOMAXPROCS); one unit ≈ one default-mesh artifact compute)")
	timeout = flag.Duration("timeout", 30*time.Second, "per-request compute budget, admission wait included")
	jobs    = flag.Int("jobs", runtime.NumCPU(), "workers for full-report requests")
	drain   = flag.Duration("drain", 15*time.Second, "shutdown grace period for in-flight requests")
	traceWk = flag.Int("trace-workers", 0, "concurrently running trace-simulation jobs (0 = 2)")

	storeDir = flag.String("store", "", "directory for the disk-backed result store (empty = memory-only; share it between replicas to warm each other)")

	loadgen      = flag.Bool("loadgen", false, "run as a load generator instead of a server")
	base         = flag.String("base", "", "loadgen: base URL of a running daemon (empty = start one in-process)")
	requests     = flag.Int("requests", 200, "loadgen: total requests")
	concurrency  = flag.Int("concurrency", 8, "loadgen: concurrent clients")
	targets      = flag.String("targets", "", "loadgen: comma-separated artifact ids to cycle (empty = whole registry)")
	lgFormat     = flag.String("format", "text", "loadgen: format query parameter")
	lgMeshN      = flag.Int("mesh-n", 0, "loadgen: mesh-n query parameter (0 = omit)")
	scenarioMix  = flag.Float64("scenario-mix", 0, "loadgen: fraction of requests that POST a scenario to /api/v1/scenarios instead of GETting an artifact (0 = none)")
	scenarioFile = flag.String("scenario-file", "", "loadgen: scenario JSON to post for the -scenario-mix fraction (empty = a built-in 3-step Vdd sweep)")
)

func main() {
	flag.Parse()
	if *loadgen {
		if err := runLoadgen(); err != nil {
			fmt.Fprintln(os.Stderr, "nanoreprod:", err)
			os.Exit(1)
		}
		return
	}
	if err := runServer(); err != nil {
		fmt.Fprintln(os.Stderr, "nanoreprod:", err)
		os.Exit(1)
	}
}

// openStore opens the -store directory when one is configured.
func openStore() (*store.Store, error) {
	if *storeDir == "" {
		return nil, nil
	}
	return store.Open(store.Config{Dir: *storeDir})
}

func runServer() error {
	logger := log.New(os.Stderr, "nanoreprod: ", log.LstdFlags)
	st, err := openStore()
	if err != nil {
		return err
	}
	s := serve.New(serve.Config{
		GateUnits:  *gate,
		Timeout:    *timeout,
		Jobs:       *jobs,
		Store:      st,
		JobWorkers: *traceWk,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Printf("serving on http://%s (gate=%d units, timeout=%s, store=%q)",
		ln.Addr(), *gate, *timeout, *storeDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let in-flight requests finish.
	logger.Printf("shutting down, draining in-flight requests (up to %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	// Trace jobs are fire-and-forget from the HTTP side, so the drain
	// above does not cover them: cancel whatever is still simulating.
	s.Close()
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Printf("drained cleanly")
	return nil
}
