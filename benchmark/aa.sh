#!/usr/bin/env bash
# A/A check: run the timed suite twice on the same code, then apply every
# end-to-end metric's bound and direction to the pair. Virtual-clock and
# count metrics must agree exactly; host-clock metrics within their bounds.
# Exits non-zero on any breach. Extra arguments (e.g. --seed 7) go to both runs.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=benchmark/out
benchmark/run.sh --trace 0 --out "$out/aa_a" "$@"
benchmark/run.sh --trace 0 --out "$out/aa_b" "$@"
benchmark/run.sh --compare "$out/aa_a/e2e.json" "$out/aa_b/e2e.json"
