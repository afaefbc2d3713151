#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload solo|cmp|farm --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Every build and run artifact stays in
# .bench_build/ under that root (the Go build cache included), so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS="-mod=mod -buildvcs=false" GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -trimpath -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
