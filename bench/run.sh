#!/usr/bin/env bash
# Builds pooledbench and runs it from the repository root, passing every
# argument through:
#
#   bash bench/run.sh --workload sync-exact --seed 1 --seconds 28 --trace 0
#
# The Go build cache, module cache and every binary stay under
# .bench_build/ in the repository root, so a run reads and writes only
# inside the checkout. Without the repository's sources next to bench/,
# the build fails and the script exits non-zero without a result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
mkdir -p "$build/bin"
go -C bench build -o "$build/bin/pooledbench" ./pooledbench
exec "$build/bin/pooledbench" "$@"
