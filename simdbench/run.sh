#!/usr/bin/env bash
# Builds the simd end-to-end benchmark from the checkout it sits in and runs
# it with the given arguments. Run from the repository root:
#
#   bash simdbench/run.sh --workload local-sf --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, journals and span dumps.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C simdbench build -o "$out/simdbench" .
exec "$out/simdbench" "$@"
