#!/usr/bin/env bash
# Runs the repository benchmark from the repository root, e.g.
#
#   bash bench/run.sh --workload slap_asic_cold --seed 1 --seconds 15 --trace 0
#
# It builds the harness (which then builds slap-serve and slap-train) from
# source and runs it with the given flags. Every Go cache, temporary file and
# home directory lives under .bench_build, so a run reads and writes nothing
# outside the checkout apart from the Go toolchain itself.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/slap-serve || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the root of the slap repository" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd bench && go build -o "$build/bin/slap-bench" .)
exec "$build/bin/slap-bench" -root "$PWD" -build "$build" "$@"
