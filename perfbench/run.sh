#!/usr/bin/env bash
# Builds and runs the cqfitd benchmark from the root of a checkout:
#
#	bash perfbench/run.sh --workload solve-1c --seed 1 --seconds 25 --trace 0
#
# Go's build cache, its module and config directories, the benchmark
# binary and the cqfitd binary under test all live in .bench_build, so a
# run reads and writes only inside the checkout.
set -euo pipefail
root=$PWD
build=$root/.bench_build
export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$build"
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
