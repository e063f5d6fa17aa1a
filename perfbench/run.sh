#!/usr/bin/env bash
# Builds the whole-loop benchmark from this checkout and runs it with the
# given arguments (see perfbench/README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload borg-day --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ and
# .bench_out/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/perfbench"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME"

cd "$root/perfbench"
# The build stamps the measured commit when the checkout is a git
# repository; where git cannot report it, build without the stamp.
go build -o "$build/perfbench" . >&2 ||
	go build -buildvcs=false -o "$build/perfbench" . >&2
cd "$root"
exec "$build/perfbench" "$@"
