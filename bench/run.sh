#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ inside the checkout (Go's build cache included, so
# nothing outside the checkout is written) and runs it with the
# driver's arguments.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/nrefbench" .)
cd "$root"
exec "$build/nrefbench" "$@"
