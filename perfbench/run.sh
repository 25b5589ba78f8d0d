#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it,
# passing every argument on:
#
#   bash perfbench/run.sh --workload proof-tpch --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. The binary, the Go build cache
# and the per-run reports all stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# The go command's config and telemetry files live under the user config
# directory; keep them in the checkout too.
export XDG_CONFIG_HOME="$build/config"
mkdir -p "$GOCACHE" "$GOMODCACHE" "$GOTMPDIR"
(cd "$root/perfbench" && go build -o "$build/perfbench.bin" .) >&2
exec "$build/perfbench.bin" "$@"
