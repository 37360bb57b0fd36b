#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from
# the repository root; arguments pass through to the program:
#
#   bash perfbench/run.sh --workload dblp-read --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binary, spans, scratch
# databases) goes under .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
