# Verify/bench entry points. `make verify` is the PR gate: vet + build +
# the full test suite under the race detector (the parallel reproduction
# engine makes -race mandatory, not optional).

GO ?= go

.PHONY: all build test race vet lint verify bench bench-all bench-mesh bench-cutoff bench-report serve bench-serve

all: verify

# The PR's committed benchmark evidence: run the solver/report benchmarks
# and write machine-readable numbers (ns/op, allocs/op, solver iterations,
# GOMAXPROCS) with the seed baseline embedded for before/after diffing.
# BENCH_CPU repeats the selection at each GOMAXPROCS so the serial and
# parallel numbers land as separate rows of one document. The HTTP load
# run then prints the serving-layer numbers (throughput, latency
# percentiles, cache counters) to stdout; they are not written to
# BENCH_OUT.
BENCH_OUT ?= BENCH_8.json
BENCH_BASELINE ?= bench_seed.json
BENCH_CPU ?= 1,4

bench:
	$(GO) run ./cmd/benchjson -out $(BENCH_OUT) -baseline $(BENCH_BASELINE) -cpu $(BENCH_CPU)
	$(MAKE) bench-serve

# The HTTP daemon on :8077 (override: make serve ADDR=:9000).
ADDR ?= :8077
serve:
	$(GO) run ./cmd/nanoreprod -addr $(ADDR)

# Serving-layer load run: an in-process daemon, 200 requests across 8
# clients over the whole registry — prints throughput, latency
# percentiles, and the server's cache/gate counters.
bench-serve:
	$(GO) run ./cmd/nanoreprod -loadgen -requests 200 -concurrency 8

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The project-specific static-analysis gate (internal/analyzers via
# cmd/nanolint): determinism of output-producing packages (detrange),
# the solver-error contract (solvecheck), compute-cache key coverage
# (cachekey), pooled-workspace discipline (poolescape), and the
# concurrency contracts of the serving era — lock-guarded fields
# (lockguard), context threading past blocking APIs (ctxflow), provable
# goroutine exits (goexit), strict bounded JSON decoding at API
# boundaries (strictjson), and bounded metric-label sets (metriclabel);
# plus the base laboratory kept at the scenario edge (baselab).
# Exit 1 on any finding, with the analyzer name in every line.
lint:
	$(GO) run ./cmd/nanolint ./...

race:
	$(GO) test -race ./...

verify: vet build lint race

# All benchmarks: every artifact end to end + ablations + solver kernels +
# the parallel full-report speedup (bench_test.go), raw text output.
bench-all:
	$(GO) test -bench=. -run='^$$' -benchmem .

# The hot IR-drop kernel: seed-style allocating CG vs the
# multigrid-preconditioned production path at n = 63 and 255, and the
# 9-variant batched sweep vs independent solves.
bench-mesh:
	$(GO) test -bench='BenchmarkMeshSolve|BenchmarkSweepBatch' -run='^$$' -benchmem .

# The parallel-cutoff micro-benchmark behind mathx.parCutoff: serial axpy
# vs parForBlocks across the cutoff, at GOMAXPROCS 1 and 4.
bench-cutoff:
	$(GO) test -bench='BenchmarkParCutoff' -run='^$$' -cpu 1,4 ./internal/mathx

# Full-report wall clock at -jobs=1 vs -jobs=NumCPU.
bench-report:
	$(GO) test -bench='BenchmarkFullReport' -run='^$$' .
