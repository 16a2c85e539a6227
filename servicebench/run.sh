#!/usr/bin/env bash
# Builds the connectivity-service benchmark from source and runs it.
#
# Run from the repository root:
#   bash servicebench/run.sh --workload ingest-sparse --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every file a run writes live under
# $CARGO_TARGET_DIR (default .bench_build) inside the current directory, so
# nothing outside the checkout is touched. The build fails, and the script
# exits non-zero, when the repository's own sources are not next to this
# directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off
go -C "$here" build -o "$out/servicebench" .
exec "$out/servicebench" -workdir "$out" "$@"
