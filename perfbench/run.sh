#!/usr/bin/env bash
# Builds seedex-serve and the benchmark from this checkout, then runs the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload extend-strict --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write lands under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/seedex-serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a seedex checkout (go.mod, cmd/seedex-serve and perfbench/ must exist)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command's telemetry counters go under the user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off GOENV=off

go build -o "$out/bin/seedex-serve" ./cmd/seedex-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -server "$out/bin/seedex-serve" -out "$out/perfbench" "$@"
