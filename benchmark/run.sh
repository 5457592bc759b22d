#!/usr/bin/env bash
# Entry point of the repo benchmark: builds the benchmark package from
# source (offline, release, its own workspace) and runs it from the
# checkout root.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh all    [--seed N] [--seconds S]   every workload, spans off, end-to-end metrics
#   benchmark/run.sh layers [--seed N] [--seconds S]   every workload traced, per-layer metrics + traces
#   benchmark/run.sh check smoke                       1/50-size pass, correctness checks only
#   benchmark/run.sh check repeat                      two alternating sets of 10 seeds: IQR/median vs bound/3, medians within the bounds
#   benchmark/run.sh test                              the benchmark's own unit tests
set -euo pipefail

# A relative CARGO_TARGET_DIR is relative to the caller's directory.
if [[ -n "${CARGO_TARGET_DIR:-}" && "${CARGO_TARGET_DIR}" != /* ]]; then
  CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/benchmark/target}"

if [[ "${1:-}" == "test" ]]; then
  exec cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
fi
# Build output goes to stderr: stdout carries only the benchmark's report.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/adele_perfbench" "$@"
