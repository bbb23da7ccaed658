#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in (run it from the
# repository root) and runs it; every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload scan --seed 1 --seconds 20 --trace 0
#
# All build output (Go build cache, binary, span files) stays in
# .bench_build/ under the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off
commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --commit "$commit" --out "$out" "$@"
