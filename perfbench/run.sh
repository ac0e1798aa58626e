#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout: bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build and cache file stays under the build directory inside the
# checkout (CARGO_TARGET_DIR when set, else .bench_build), and the Go
# toolchain runs offline with the local toolchain only.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
