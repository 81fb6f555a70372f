package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"nanometer/internal/repro"
	"nanometer/internal/serve"
)

// clients is the number of load-generating goroutines and the connection
// cap of the HTTP transport. It is an assumption, not an observed caller
// count: one per vCPU of the 2-vCPU host the benchmark was defined on, so
// the generator never outnumbers the cores the daemon shares with it.
const clients = 2

// maxBody bounds every response body the benchmark reads.
const maxBody = 64 << 20

// opTimeout bounds one HTTP exchange, so a hung daemon fails the op
// instead of the run.
const opTimeout = 60 * time.Second

// newClient returns the benchmark's HTTP client: at most clients
// connections, no proxy, no transparent decompression.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// daemon is an in-process nanoreprod: serve.New, its Handler, and a
// loopback listener, the same wiring cmd/nanoreprod uses.
type daemon struct {
	base string
	s    *serve.Server
	srv  *http.Server
	done chan struct{}
}

func startDaemon(cfg serve.Config) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := serve.New(cfg)
	d := &daemon{base: "http://" + ln.Addr().String(), s: s, srv: &http.Server{Handler: s.Handler()}, done: make(chan struct{})}
	go func() {
		// Serve returns ErrServerClosed once close shuts the server.
		d.srv.Serve(ln)
		close(d.done)
	}()
	return d, nil
}

// close stops the server, cancels its trace jobs, waits for the serving
// goroutine, and uninstalls the result store the server installed
// process-wide.
func (d *daemon) close() {
	d.srv.Close()
	<-d.done
	d.s.Close()
	repro.SetResultStore(nil)
}

// exchange is one HTTP response as the benchmark sees it.
type exchange struct {
	status int
	body   []byte
	etag   string
}

// do sends one request and reads the whole response body.
func do(ctx context.Context, c *http.Client, method, url string, body []byte, header map[string]string) (exchange, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return exchange{}, err
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		return exchange{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return exchange{}, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	return exchange{status: resp.StatusCode, body: b, etag: resp.Header.Get("ETag")}, nil
}

// expect returns an error unless the exchange has the wanted status.
func (x exchange) expect(status int, what string) error {
	if x.status != status {
		return fmt.Errorf("%s: status %d, want %d: %.200s", what, x.status, status, x.body)
	}
	return nil
}

// counters are cumulative /metrics samples summed over label sets, keyed
// by sample name (histograms contribute name_sum, name_count, name_bucket).
type counters map[string]float64

// scrape reads the daemon's /metrics.
func scrape(ctx context.Context, c *http.Client, base string) (counters, error) {
	x, err := do(ctx, c, http.MethodGet, base+"/metrics", nil, nil)
	if err != nil {
		return nil, err
	}
	if err := x.expect(http.StatusOK, "GET /metrics"); err != nil {
		return nil, err
	}
	out := counters{}
	sc := bufio.NewScanner(bytes.NewReader(x.body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// add accumulates b − a into c.
func (c counters) add(a, b counters) {
	for k, v := range b {
		c[k] += v - a[k]
	}
}
