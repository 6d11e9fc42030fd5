#!/usr/bin/env sh
# profile.sh — run stms-bench under the CPU and allocation profilers and
# print the top-10 flat hot spots of each, so a perf PR starts from data
# instead of guesses.
#
# Usage:
#   scripts/profile.sh [stms-bench flags...]
#
# Defaults to `-run fig8` at the stms-bench default scale; pass any
# stms-bench flags to override (e.g. `scripts/profile.sh -run all
# -scale 0.0625`). Profiles and the built binary land in ./profile.out/.
#
# `GOMAXPROCS=1 scripts/profile.sh -run fig5r -par 1` profiles the Fig. 5
# index-capacity sweep on the functional driver, the path of the
# benchmark's capacity-functional workload.
set -eu

outdir=profile.out
mkdir -p "$outdir"

args="$*"
if [ -z "$args" ]; then
	args="-run fig8"
fi

echo "== building stms-bench"
go build -o "$outdir/stms-bench" ./cmd/stms-bench

echo "== running: stms-bench $args (-cpuprofile/-memprofile -> $outdir)"
# shellcheck disable=SC2086
"$outdir/stms-bench" $args \
	-cpuprofile "$outdir/cpu.pprof" \
	-memprofile "$outdir/mem.pprof" \
	>"$outdir/bench.txt"

echo
echo "== top-10 flat CPU"
go tool pprof -top -nodecount=10 "$outdir/stms-bench" "$outdir/cpu.pprof" | sed -n '/flat  flat%/,$p'

echo
echo "== top-10 flat allocations (space)"
go tool pprof -top -nodecount=10 -sample_index=alloc_space "$outdir/stms-bench" "$outdir/mem.pprof" | sed -n '/flat  flat%/,$p'

echo
echo "full text output: $outdir/bench.txt; explore with:"
echo "  go tool pprof $outdir/stms-bench $outdir/cpu.pprof"
