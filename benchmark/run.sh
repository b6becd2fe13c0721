#!/usr/bin/env bash
# Builds the benchmark binary once per checkout and runs one workload:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
bin="$out/pawe2e"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS="-buildvcs=false" GOTOOLCHAIN=local GOPROXY=off
# Rebuild only when a source file is newer than the binary, so the 22 runs of
# a workload share one build and never time the compiler.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$out" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
  (cd "$root/benchmark" && go build -o "$bin" .) >&2
fi
cd "$root"
exec "$bin" "$@"
