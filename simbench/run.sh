#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash simbench/run.sh --workload headline --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, temporaries, the
# binary) lands under $CARGO_TARGET_DIR, default .bench_build, inside
# the current directory. No module is downloaded: the benchmark needs
# only the standard library and the simulator next to it.
set -euo pipefail

src=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath \
    XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache \
    GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

go -C "$src" build -o "$out/simbench" .
exec "$out/simbench" "$@"
