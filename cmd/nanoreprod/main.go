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
// Usage:
//
//	nanoreprod                        # serve on :8077
//	nanoreprod -addr :9000 -gate 16 -timeout 10s
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
)

func main() {
	flag.Parse()
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
		ln.Addr(), s.GateUnits(), *timeout, *storeDir)

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
