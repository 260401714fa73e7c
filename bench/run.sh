#!/usr/bin/env bash
# Builds the tlrsim benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload paper-suite --seed 7 --seconds 20 --trace 0
#
# Every file the Go toolchain and the benchmark write (build cache, binary,
# CPU profiles, span traces) stays under .bench_build in the current
# directory; the toolchain never goes to the network.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build/home"

export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$here" && go build -o "$build/tlrbench" .)
exec "$build/tlrbench" "$@"
