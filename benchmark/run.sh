#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json names it). Builds the
# benchmark from source into <checkout>/.bench_build and runs it with
# the given arguments. Everything the build writes - Go's build cache
# included - stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/darray-benchmark" .)
DARRAY_BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export DARRAY_BENCH_COMMIT
exec "$build/darray-benchmark" -outdir "$here/out" "$@"
