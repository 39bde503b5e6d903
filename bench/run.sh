#!/usr/bin/env bash
# Builds the load generator from source and runs it from the checkout
# root. Everything the go tool writes (build cache, module cache,
# telemetry) is kept under .bench_build/ so a run touches nothing
# outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C bench -o "$build/tacticlive" .
exec "$build/tacticlive" "$@"
