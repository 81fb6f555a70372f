#!/bin/sh
# Builds cmd/nanobench from the source of the checkout it is run from and
# runs it with the given arguments. Run it from the repository root:
#
#   sh cmd/nanobench/run.sh --workload report --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files (including the result stores the
# workloads create) and the binary all stay under .bench_build/.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/cmd/nanobench" && go build -o "$build/nanobench" .)
exec "$build/nanobench" "$@"
