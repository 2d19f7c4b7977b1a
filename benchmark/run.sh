#!/usr/bin/env bash
# The one command of the CHIME benchmark: builds the harness offline, then
# hands every argument to it (see src/main.rs for the argument list).
#
#   benchmark/run.sh                         all six workloads, both passes
#   benchmark/run.sh --workload read_zipf    one workload
#   benchmark/run.sh --seed 7 --trace 0      another seed, timed pass only
#   benchmark/run.sh --trace 1               traced pass only (per-layer metrics)
#   benchmark/run.sh --compare A.json B.json apply the bounds to two e2e.json files
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# Relative to the repository root, where the harness also runs.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/chime-benchmark" "$@"
