#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments.
#
# Run from the repository root:
#
#	sh bench/run.sh --workload fig8-timed --seed 42 --seconds 50 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# the binary, reports and span files) stays under .bench_build/ in the
# working directory. No network is used: the module has no dependencies
# beyond the simulator one directory up.
set -eu

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS= GOWORK=off GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
go -C bench build -o "$out/stms-bench" . >&2
exec "$out/stms-bench" "$@"
