#!/usr/bin/env bash
# Builds fleetrun, fleetd and perfbench from the checkout the
# script is run in, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload drain --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact (Go build cache, Go's config and telemetry,
# temp files, campaign files, fleetd sidecars) stays under
# $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$build/bin/" ./cmd/fleetrun ./cmd/fleetd >&2
go -C perfbench build -o "$build/bin/perfbench" . >&2
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/run" "$@"
