#!/usr/bin/env bash
# Builds minflobench from source and runs it; run from the repository
# root, passing the benchmark's own flags:
#
#   bash cmd/minflobench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span
# files) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/minflobench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/cmd/minflobench" && go build -o "$out/minflobench" .)
exec "$out/minflobench" "$@"
