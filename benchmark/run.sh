#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build/ and runs
# it from benchmark/, passing every argument through:
#
#   bash benchmark/run.sh --workload set-repl --seed 7 --seconds 20 --trace 0
#
# The go command's cache, module path and configuration directory are pointed
# into .bench_build/ too, so nothing is read or written outside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
