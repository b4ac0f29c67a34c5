#!/usr/bin/env bash
# Builds the evbench command from the sources of this checkout and runs it
# with the given arguments. Run it from the repository root:
#
#   bash evbench/run.sh --workload video --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the traced runs' spans and profiles
# all stay under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off CGO_ENABLED=0
go -C evbench build -o "$out/evbench" .
exec "$out/evbench" "$@"
