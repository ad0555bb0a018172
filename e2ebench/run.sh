#!/usr/bin/env bash
# Builds e2ebench from this checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload serve-hot --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build and module caches, the go
# command's configuration and telemetry, temporary files) stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
export CARGO_TARGET_DIR="$build"

go -C e2ebench build -o "$build/e2ebench" .
exec "$build/e2ebench" "$@"
