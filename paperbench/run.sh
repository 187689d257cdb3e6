#!/usr/bin/env bash
# Builds the lagalyzer CLI and the benchmark harness from this checkout,
# then runs the harness from the checkout root.
#
#   paperbench/run.sh [--workload NAME] [--seed S] [--seconds T] [--trace 0|1]
#
# Without --workload it runs all four workloads; without --trace, each
# end to end (0) and then traced (1). Cargo writes to stderr, so the last
# line of stdout is the harness's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates/cli ]; then
    echo "error: $root is not a lagalyzer checkout (no Cargo.toml or crates/cli)" >&2
    exit 1
fi
cargo build --release --locked --offline -p lagalyzer-cli >&2
cargo build --release --locked --offline --manifest-path paperbench/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-paperbench/target}/release/lagalyzer-benchmark" "$@"
