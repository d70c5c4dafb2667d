#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload campaign --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh compare ../parent .
#
# Everything the build writes (compiler cache, temporary files, the binary)
# stays under .bench_build/ in the current directory. A directory without
# the simulator sources next to benchmark/ fails the build, and the script
# exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd "$root/benchmark" && go build -o "$build/safemem-benchmark" .)
exec "$build/safemem-benchmark" "$@"
