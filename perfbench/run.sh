#!/usr/bin/env bash
# Builds the benchmark and the tlsd daemon from this checkout's sources,
# then runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, temp
# dirs, span and report files) stays under .bench_build/ in the checkout.
# A checkout without the repository's sources fails the build, and the
# script then exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/tlsd" ]; then
	echo "perfbench: run from the root of a tlssync checkout" >&2
	exit 2
fi
go build -C perfbench -o "$out/bin/perfbench" . >&2
go build -o "$out/bin/tlsd" ./cmd/tlsd >&2

exec "$out/bin/perfbench" -root "$root" -tlsd "$out/bin/tlsd" -out "$out" "$@"
