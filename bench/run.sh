#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload sweep-fig8 --seed 1 --seconds 6 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build/ in the current directory, and nothing is
# downloaded: the benchmark module depends only on the repository itself.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

go -C bench build -o "$out/cgct-bench" .
exec "$out/cgct-bench" "$@"
