#!/usr/bin/env bash
# Builds the benchmark program and runs it from the repository root:
#
#   bash perfbench/run.sh --workload spec-cold --seed 1 --seconds 20 --trace 0
#
# Every build output, the Go build cache and all scratch data stay under
# .bench_build/ in the checkout, so a run reads and writes nothing outside
# it. The program itself builds cmd/tvgserve (see README.md).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTELEMETRY=off
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$root/perfbench"
go build -o "$build/bin/perfbench" .
cd "$root"
exec "$build/bin/perfbench" -root "$root" "$@"
