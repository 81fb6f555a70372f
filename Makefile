# Verify/bench entry points. `make verify` is the PR gate: vet + build +
# the full test suite under the race detector (the parallel reproduction
# engine makes -race mandatory, not optional). The suite includes the
# lockguard lint (TestRepoIsClean in internal/analyzers).

GO ?= go

.PHONY: all build test race vet verify loc bench bench-all bench-mesh serve

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

race:
	$(GO) test -race ./...

verify: vet build race

# Non-test Go lines outside cmd/nanobench, testdata fixtures counted: the
# size each change reports in CHANGES.md.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './cmd/nanobench/*' -exec cat {} + | wc -l

# All go-test benchmarks: every artifact end to end (BenchmarkArtifact/<id>)
# + solver and optimizer kernels + the parallel full-report speedup
# (bench_test.go), raw text output; pprof entry points, not the ledger.
bench-all:
	$(GO) test -bench=. -run='^$$' -benchmem .

# The IR-drop unit drop φ(n): a CG solve of the assembled mesh against
# the closed-form spectral sum at n = 63 and 255 (and the closed form
# alone at 1023), the full c8 mesh path, and a 9-variant Vdd-shaped sweep
# at n = 127 and 255: the one evaluation the first mesh of a size pays,
# and the warm sweep that scales its drop.
bench-mesh:
	$(GO) test -bench='BenchmarkMeshSolve|BenchmarkSweepBatch' -run='^$$' -benchmem . ./internal/powergrid
