#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload build-highdim --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --steady 10        # steadiness report over all workloads
#
# Every build artefact, cache and scratch file stays under .bench_build/
# in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the repository root: no go.mod and internal/ in $root" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its env file and telemetry counters under the
# user config directory; point that into the checkout as well.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

commit=unknown
if [[ -e "$root/.git" ]]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	if [[ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]]; then
		commit="$commit+dirty"
	fi
fi

go -C "$root/perfbench" build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
