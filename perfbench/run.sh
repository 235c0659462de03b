#!/usr/bin/env bash
# Builds the benchmark from this source tree and runs it with the given
# arguments, from the root of the tree:
#
#   bash perfbench/run.sh --workload saturation --seed 1 --seconds 18 --trace 0
#
# Every build artefact, the Go build cache and the traced run's spans and
# CPU profiles stay under .bench_build/ in the tree. The build needs the
# repository's go.mod one directory up; without it the build fails and the
# script exits non-zero before any result is printed.
set -euo pipefail

root=$(pwd)
cache=${CARGO_TARGET_DIR:-.bench_build}
case $cache in /*) ;; *) cache=$root/$cache ;; esac
mkdir -p "$cache/tmp"

export GOCACHE=$cache/go-cache GOPATH=$cache/gopath XDG_CONFIG_HOME=$cache/config
export GOTMPDIR=$cache/tmp TMPDIR=$cache/tmp
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

(cd perfbench && go build -o "$cache/perfbench" .) >&2 || {
	echo "perfbench: build failed" >&2
	exit 1
}
exec "$cache/perfbench" -out "$cache/perfbench-out" "$@"
