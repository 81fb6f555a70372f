# Verify/bench entry points. `make verify` is the PR gate: vet + build +
# the full test suite under the race detector (the parallel reproduction
# engine makes -race mandatory, not optional).

GO ?= go

.PHONY: all build test race vet lint verify bench bench-all bench-mesh bench-cutoff serve

all: verify

# The repository benchmark (cmd/nanobench, declared in BENCHMARK.json):
# every workload once, end-to-end metrics per run. Pass flags through
# run.sh directly for anything else, e.g. one traced workload:
#   sh cmd/nanobench/run.sh --workload report --trace 1
bench:
	sh cmd/nanobench/run.sh

# The HTTP daemon on :8077 (override: make serve ADDR=:9000).
ADDR ?= :8077
serve:
	$(GO) run ./cmd/nanoreprod -addr $(ADDR)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The project-specific static-analysis gate (internal/analyzers via
# cmd/nanolint): determinism of output-producing packages (detrange), the
# concurrency contracts of the serving era — lock-guarded fields
# (lockguard), context threading past blocking APIs (ctxflow), provable
# goroutine exits (goexit) — bounded metric-label sets (metriclabel), and
# the base laboratory kept at the scenario edge (baselab).
# Exit 1 on any finding, with the analyzer name in every line.
lint:
	$(GO) run ./cmd/nanolint ./...

race:
	$(GO) test -race ./...

verify: vet build lint race

# All go-test benchmarks: every artifact end to end (BenchmarkArtifact/<id>)
# + solver and optimizer kernels + the parallel full-report speedup
# (bench_test.go), raw text output; pprof entry points, not the ledger.
bench-all:
	$(GO) test -bench=. -run='^$$' -benchmem .

# The hot IR-drop kernel: seed-style allocating CG vs the
# multigrid-preconditioned production path at n = 63 and 255, and a
# 9-variant sweep solved independently vs through sweep priming.
bench-mesh:
	$(GO) test -bench='BenchmarkMeshSolve|BenchmarkSweepBatch' -run='^$$' -benchmem .

# The parallel-cutoff micro-benchmark behind mathx.parCutoff: serial axpy
# vs parForBlocks across the cutoff, at GOMAXPROCS 1 and 4.
bench-cutoff:
	$(GO) test -bench='BenchmarkParCutoff' -run='^$$' -cpu 1,4 ./internal/mathx
