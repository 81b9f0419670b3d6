#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root; every argument is passed to the benchmark binary:
#
#   bash qbench/run.sh --workload sim-sweep --seed 3 --seconds 10 --trace 0
#
# Build products stay inside the checkout: the binary and the Go build cache
# go under $CARGO_TARGET_DIR (default .bench_build), and so do the scratch
# files the serve-mix workload writes.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/qbench" && go build -o "$out/qbench" .)
exec "$out/qbench" --tmp "$out/tmp" --trace-out "$out/trace" "$@"
