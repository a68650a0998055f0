#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it with the
# given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload spe-dense --seed 1 --seconds 20 --trace 0
#
# Every build artefact, the Go build cache included, stays under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
