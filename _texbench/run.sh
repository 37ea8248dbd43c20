#!/usr/bin/env bash
# Builds the texcache benchmark from the checkout it sits in and runs it.
#
# Usage, from the repository root:
#
#   bash _texbench/run.sh --workload village-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build writes — the Go build cache, the toolchain's
# per-user state and the binary — goes under .bench_build/ in the current
# directory. The benchmark module replaces the texcache module with the
# checkout's root, so the build fails (and the script exits non-zero)
# where the simulator's sources are absent.
set -euo pipefail

root=$PWD
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$root/.bench_build/texbench
mkdir -p "$out/home"

export HOME=$out/home
export XDG_CONFIG_HOME=$out/home/.config
export XDG_CACHE_HOME=$out/home/.cache
export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOTELEMETRY=off

(cd "$bench" && go build -o "$out/texbench" .) >&2
exec "$out/texbench" -root "$root" "$@"
