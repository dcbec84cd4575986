#!/usr/bin/env bash
# Builds ddr-bench from source (Release, into .bench_build at the
# repository root) and runs it with the given arguments, e.g.
#
#   bash bench/e2e/run.sh --workload trace-scan --seed 7 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the result.
# Must be run from the repository root.
set -euo pipefail

build_dir=.bench_build
cmake -S bench/e2e -B "$build_dir" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build_dir" --target ddr-bench -j4 >&2
exec "$build_dir/ddr-bench" "$@"
