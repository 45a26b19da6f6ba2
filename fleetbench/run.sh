#!/usr/bin/env bash
# Builds the fleet benchmark from source and runs it. Run from the root of
# the repository:
#
#   bash fleetbench/run.sh --workload cold-grid --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write — Go's build cache, temporary
# files, replica cache directories, span files — stays under .bench_build/
# at the repository root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export TMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/fleetbench" && go build -buildvcs=false -o "$build/fleetbench" .)
exec "$build/fleetbench" --workdir "$build/fleetbench-work" "$@"
