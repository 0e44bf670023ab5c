#!/usr/bin/env bash
# Builds the benchmark harness and runs it:
#   run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
#   run.sh --list
# Every metric is printed by name with its unit and direction; the last
# line of each workload's output is the JSON object BENCHMARK.json's
# driver reads. Exits non-zero when any operation failed, when a traced
# run's layer budget does not hold, or when the build fails.
set -euo pipefail
here="$(dirname "$0")"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
