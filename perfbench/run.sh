#!/usr/bin/env bash
# Builds qcserve and the perfbench command from this checkout's sources,
# then runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload qaoa16-lossless --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --seconds 5
#
# Everything the build and the run write stays under .bench_build/ in
# the repository root: the Go build cache, both binaries, scratch files
# (spill files, checkpoints, the server's data directory) and the
# traced run's span dumps.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs ./go.mod and ./perfbench/go.mod)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export TMPDIR="$out/tmp"

# Build output goes to stderr so the last line of stdout stays the
# benchmark's JSON result.
go build -o "$out/bin/qcserve" ./cmd/qcserve >&2
go -C perfbench build -o "$out/bin/perfbench" . >&2

exec "$out/bin/perfbench" --qcserve "$out/bin/qcserve" --workdir "$out" "$@"
