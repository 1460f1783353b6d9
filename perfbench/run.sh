#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on, e.g.
#
#   bash perfbench/run.sh --workload coexplore --seed 1 --seconds 20 --trace 0
#
# Build and run files stay inside the checkout, under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
# The go command keeps its config, telemetry counters and module cache
# under the home directory; point it inside the checkout too.
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOPATH="$build/home/go"
export GOTOOLCHAIN=local

go -C "$root/perfbench" build -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" --out "$build/perfbench" "$@"
