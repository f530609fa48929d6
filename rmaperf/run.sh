#!/usr/bin/env bash
# Builds the benchmark and rmaserver from this tree, then runs the
# benchmark. Run from the repository root:
#
#   bash rmaperf/run.sh --workload serve --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files
# all stay under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The go command keeps its local telemetry counters under the user
# config directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$out/config"

go -C "$root/rmaperf" build -o "$out/bin/rmaperf" . >&2
go -C "$root" build -o "$out/bin/rmaserver" ./cmd/rmaserver >&2

exec "$out/bin/rmaperf" -server "$out/bin/rmaserver" -work "$out/rmaperf" -root "$root" "$@"
