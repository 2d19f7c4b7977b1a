#!/usr/bin/env bash
# Alternating timed passes of one benchmark workload, a base revision
# against the working tree:
#
#   tools/pairs.sh BASE WORKLOAD N [harness arguments...]
#   make pairs BASE=HEAD~1 WORKLOAD=scan_insert N=10 ARGS="--seed 7"
#
# Both sides are exported with `git archive` into $PAIRS_DIR (default
# target/pairs): BASE at its commit, under the commit's sha, and the working
# tree at `git stash create` (HEAD when the tree is clean; untracked files
# are not in it, so `git add` new files first), under its tree's sha, so an
# unchanged tree is not built again. Each export is built there with its own target
# directory, so the two never share compiled crates, and both build at
# paths of one length, so neither side's code layout differs by its path.
# Each of the N pairs runs one `--workload WORKLOAD --trace 0` pass of each
# side, the side that goes first alternating; extra arguments (`--seed 7`,
# `--seconds 6`) go to both. For every end-to-end metric of BENCHMARK.json
# it prints each side's first quartile, median and third quartile, the
# change's median over the base's, and in how many pairs the change was
# ahead (by the metric's direction) or equal. The raw result lines are kept
# in $PAIRS_DIR/<base sha>/<workload>.{base,change}.jsonl. Needs `jq`.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ $# -lt 3 ]; then
    echo "usage: $0 BASE WORKLOAD N [harness arguments...]" >&2
    exit 2
fi
base=$1 workload=$2 n=$3
shift 3
sha=$(git rev-parse --verify "$base^{commit}")
change=$(git stash create)
change=${change:-$(git rev-parse HEAD)}
if [ -n "$(git ls-files --others --exclude-standard)" ]; then
    echo "warning: untracked files are not in the working tree's export" >&2
fi
pairs=${PAIRS_DIR:-target/pairs}
# Exports revision `$1` under $pairs/$2 and builds its harness there;
# prints the export's directory.
export_and_build() {
    local dir="$pairs/$2"
    if [ ! -d "$dir" ]; then
        mkdir -p "$dir"
        git archive "$1" | tar -x -C "$dir"
    fi
    (cd "$dir" && CARGO_TARGET_DIR=target cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml) >&2
    echo "$dir"
}
dir=$(export_and_build "$sha" "$sha")
change_dir=$(export_and_build "$change" "$(git rev-parse "$change^{tree}")")
bin=target/release/chime-benchmark

out_base="$dir/$workload.base.jsonl" out_change="$dir/$workload.change.jsonl"
: > "$out_base"
: > "$out_change"
# The harness reads BENCHMARK.json from its working directory: each side
# runs from its own root. The last stdout line is the result object.
run_base() { (cd "$dir" && "$bin" --workload "$workload" --trace 0 "$@" | tail -n 1) >> "$out_base"; }
run_change() { (cd "$change_dir" && "$bin" --workload "$workload" --trace 0 "$@" | tail -n 1) >> "$out_change"; }
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

echo "$workload, $n pairs, base ${sha:0:7} against the working tree (${change:0:7})${*:+, $*}"
printf '%-18s %32s %32s %9s %8s %7s\n' metric "base q1/median/q3" "change q1/median/q3" ratio ahead equal
jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json | while read -r metric better; do
    values() { jq -r --arg m "$metric" '.metrics[$m].value // empty' "$1"; }
    paste <(values "$out_base") <(values "$out_change") | awk -v m="$metric" -v better="$better" '
        # The p-quantile of a[1..k], sorted in place, interpolated linearly
        # between the two nearest ranks (p = 0.5 is the median).
        function quantile(a, k, p,    i, j, t, r, lo) {
            for (i = 2; i <= k; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
            r = 1 + (k - 1) * p; lo = int(r)
            return lo < k ? a[lo] + (r - lo) * (a[lo + 1] - a[lo]) : a[k]
        }
        function spread(a, k) {
            return sprintf("%10.6g %10.6g %10.6g", quantile(a, k, 0.25), quantile(a, k, 0.5), quantile(a, k, 0.75))
        }
        NF == 2 {
            k++; b[k] = $1; c[k] = $2
            if ($1 == $2) same++
            else if ((better == "higher") == ($2 > $1)) ahead++
        }
        END {
            if (!k) exit
            mb = quantile(b, k, 0.5); mc = quantile(c, k, 0.5)
            printf "%-18s %32s %32s %9.4f %5d/%-2d %7d\n", m, spread(b, k), spread(c, k), mb ? mc / mb : 0, ahead, k, same
        }'
done
