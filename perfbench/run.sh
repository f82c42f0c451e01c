#!/usr/bin/env bash
# Builds the load generator and the three daemons it drives from the
# source tree this script sits in, then runs the load generator with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload read --seed 1 --seconds 30 --trace 0
#
# Every build and run artifact lands under .bench_build/ in the current
# directory, so nothing is written outside the checkout.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# inside the checkout too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$build/bin/" . repro/cmd/trustdomaind repro/cmd/monitord repro/cmd/auditord
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/run" "$@"
