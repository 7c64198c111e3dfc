#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh [--seed N] [--smoke] [--aa]        every workload, untraced and traced
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The second form is the command BENCHMARK.json names: its last line of
# standard output is the result object. Build output goes to standard
# error. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

bin="${CARGO_TARGET_DIR:-benchmark/target}/release/nucanet-benchmark"
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$bin" --rustc "$(rustc -V)" --commit "$commit" "$@"
