#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (Go's build cache
# included, so nothing is written outside the checkout) and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload bulk_inproc --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
