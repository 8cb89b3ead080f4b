#!/bin/sh
# Build the benchmark from source into .bench_build/ at the checkout root and
# run it. Everything the Go toolchain writes (build cache, temp files, its
# own telemetry) is redirected under .bench_build/ so a run reads and writes
# only inside the checkout. Invoke from the checkout root:
#
#   bash bench/run.sh --workload boot_rollback --seed 1 --seconds 20 --trace 0
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$root/bench" && go build -o "$out/fastyard" .)
exec "$out/fastyard" "$@"
