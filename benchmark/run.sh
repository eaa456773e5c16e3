#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# driver's arguments. Everything the build and the run write — Go's build
# cache, the binary, the servers' data dirs — stays under .bench_build at the
# root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$here" && go build -o "$build/probdb-benchmark" .)
cd "$root"
exec "$build/probdb-benchmark" --scratch "$build/data" "$@"
