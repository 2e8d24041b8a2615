#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload kbuild-F --seed 1 --seconds 10 --trace 0
#
# Every build output (binary, Go build cache, profiles, spans) goes to
# .bench_build in the repository root.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "run.sh: run from the repository root (need go.mod and perfbench/go.mod)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
# XDG_CONFIG_HOME keeps the go command's telemetry counters inside the checkout.
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= PPROF_TMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)

PERFBENCH_COMMIT=unknown
if [ -e "$root/.git" ]; then
	PERFBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export PERFBENCH_COMMIT
exec "$build/perfbench" --root "$root" "$@"
