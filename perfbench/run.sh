#!/usr/bin/env bash
# Builds the benchmark and ptbserve from this checkout's sources, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload matrix-4c --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --steady 10 --workload serve-cold
#
# Everything the build and the runs write lands under .bench_build (or
# $CARGO_TARGET_DIR when it is set), Go's build cache included. Outside a
# checkout of the repository the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config XDG_CACHE_HOME=$build/cache PPROF_TMPDIR=$build/pprof
export GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

(
	cd "$root/perfbench"
	go build -o "$build/bin/perfbench" .
	go build -o "$build/bin/ptbserve" ptbsim/cmd/ptbserve
) >&2

exec "$build/bin/perfbench" -build "$build" "$@"
