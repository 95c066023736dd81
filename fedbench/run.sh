#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash fedbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run write —
# the Go build cache, temporary files, the binary, WAL scratch files —
# goes under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/fedbench" && go build -o "$out/fedbench" .)
exec "$out/fedbench" "$@"
