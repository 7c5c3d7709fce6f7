#!/usr/bin/env bash
# Builds dynshapd and the benchmark from source, then performs one run.
#
#   bash perfbench/run.sh --workload delta-churn --seed 1 --seconds 45 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: Go's build cache and temp files, the binaries, dynshapd's data
# directories (removed after each run) and the traced run's span files.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/dynshapd" dynshap/cmd/dynshapd
cd "$root"
exec "$out/perfbench" --dynshapd "$out/dynshapd" --work "$out" "$@"
