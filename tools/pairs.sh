#!/usr/bin/env bash
# Alternating timed passes of one benchmark workload, a base revision
# against the working tree:
#
#   tools/pairs.sh BASE WORKLOAD N [harness arguments...]
#   make pairs BASE=HEAD~1 WORKLOAD=scan_insert N=10 ARGS="--seed 7"
#
# BASE is exported with `git archive` into $PAIRS_DIR/<sha> (default
# target/pairs) and built there with its own target directory, so the two
# checkouts never share compiled crates. Each of the N pairs runs one
# `--workload WORKLOAD --trace 0` pass of each side, the side that goes first
# alternating; extra arguments (`--seed 7`, `--seconds 6`) go to both. For
# every end-to-end metric of BENCHMARK.json it prints both medians, the
# change's median over the base's, and in how many pairs the change was
# ahead (by the metric's direction) or equal. The raw result lines are kept
# in $PAIRS_DIR/<sha>/<workload>.{base,change}.jsonl. Needs `jq`.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ $# -lt 3 ]; then
    echo "usage: $0 BASE WORKLOAD N [harness arguments...]" >&2
    exit 2
fi
base=$1 workload=$2 n=$3
shift 3
sha=$(git rev-parse --verify "$base^{commit}")
dir="${PAIRS_DIR:-target/pairs}/$sha"
bin=target/release/chime-benchmark
if [ ! -d "$dir" ]; then
    mkdir -p "$dir"
    git archive "$sha" | tar -x -C "$dir"
fi
# Building the harness rewrites its lock file: keep the working tree's.
lock_clean=$(git diff --quiet -- benchmark/Cargo.lock && echo 1 || true)
(cd "$dir" && CARGO_TARGET_DIR=target cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
CARGO_TARGET_DIR=benchmark/target cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
if [ -n "$lock_clean" ]; then
    git checkout --quiet -- benchmark/Cargo.lock
fi

out_base="$dir/$workload.base.jsonl" out_change="$dir/$workload.change.jsonl"
: > "$out_base"
: > "$out_change"
# The harness reads BENCHMARK.json from its working directory: each side
# runs from its own root. The last stdout line is the result object.
run_base() { (cd "$dir" && "$bin" --workload "$workload" --trace 0 "$@" | tail -n 1) >> "$out_base"; }
run_change() { benchmark/target/release/chime-benchmark --workload "$workload" --trace 0 "$@" | tail -n 1 >> "$out_change"; }
for i in $(seq 1 "$n"); do
    if [ $((i % 2)) -eq 1 ]; then
        run_base "$@"
        run_change "$@"
    else
        run_change "$@"
        run_base "$@"
    fi
    echo "pair $i/$n: host_kops $(jq -r '.metrics.host_kops.value' < <(tail -n 1 "$out_base")) -> $(jq -r '.metrics.host_kops.value' < <(tail -n 1 "$out_change"))" >&2
done

echo "$workload, $n pairs, base ${sha:0:7} against the working tree${*:+, $*}"
printf '%-18s %14s %14s %9s %8s %7s\n' metric base change ratio ahead equal
jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json | while read -r metric better; do
    values() { jq -r --arg m "$metric" '.metrics[$m].value // empty' "$1"; }
    paste <(values "$out_base") <(values "$out_change") | awk -v m="$metric" -v better="$better" '
        function median(a, k,    i, j, t) {
            for (i = 2; i <= k; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
            return k % 2 ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2
        }
        NF == 2 {
            k++; b[k] = $1; c[k] = $2
            if ($1 == $2) same++
            else if ((better == "higher") == ($2 > $1)) ahead++
        }
        END {
            if (!k) exit
            mb = median(b, k); mc = median(c, k)
            printf "%-18s %14.6g %14.6g %9.4f %5d/%-2d %7d\n", m, mb, mc, mb ? mc / mb : 0, ahead, k, same
        }'
done
