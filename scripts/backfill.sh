#!/usr/bin/env bash
# Record the perf trajectory: one benchmark ledger per past PR.
#
#   scripts/backfill.sh <rev>|<pr>=<rev> …
#
# For each rev, a checkout of its own (a local clone, reused across
# revs so the shared cargo target directory builds incrementally) runs
# that rev's own benchmark — the two builds `benchmark/run.sh` does,
# then `axml-perf bench` — and writes `BENCH_<pr>.json` at the root of
# this repository. `<pr>` is read from a subject starting "PR <n>:"
# unless given as `<pr>=<rev>`.
#
# Revs are visited alternately from the two ends of the list (first,
# last, second, second-to-last, …), so a drift of the machine during
# the campaign does not line up with the PR order. Every rev runs the
# same seeds and run length (fixed here, so every ledger is comparable):
# 3 runs of 3 s per workload, seeds 100, 101, 102.
#
#   BACKFILL_DIR (default a fresh temporary directory) checkout and
#                build directory; removed at the end unless given
#
# Building rewrites `benchmark/Cargo.lock`; the checkout restores it
# before the run, so each ledger's `git_rev` is the clean rev. A ledger
# is kept even when `bench` exits non-zero for a spread over its bound
# (it writes the ledger first); a rev that writes none stops the script.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
[ "$#" -gt 0 ] || { echo "usage: $0 <rev>|<pr>=<rev> …" >&2; exit 2; }

seconds=3
repeat=3
seed=100
work="${BACKFILL_DIR:-}"
if [ -z "$work" ]; then
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
fi
src="$work/src"
export CARGO_TARGET_DIR="$work/target"

# Resolve every argument to "<pr> <full rev>" before building anything.
pairs=()
for arg in "$@"; do
    rev="${arg#*=}"
    full="$(git -C "$root" rev-parse --verify --quiet "$rev^{commit}")" \
        || { echo "backfill: unknown rev $rev" >&2; exit 2; }
    if [ "$arg" != "$rev" ]; then
        pr="${arg%%=*}"
    else
        pr="$(git -C "$root" log -1 --format=%s "$full" | sed -nE 's/^PR ([0-9]+):.*/\1/p')"
        [ -n "$pr" ] || { echo "backfill: $rev has no \"PR <n>:\" subject; pass <pr>=$rev" >&2; exit 2; }
    fi
    pairs+=("$pr $full")
done

order=()
lo=0
hi=$((${#pairs[@]} - 1))
while [ "$lo" -le "$hi" ]; do
    order+=("${pairs[$lo]}")
    [ "$lo" -lt "$hi" ] && order+=("${pairs[$hi]}")
    lo=$((lo + 1))
    hi=$((hi - 1))
done

if [ -d "$src/.git" ]; then
    git -C "$src" fetch --quiet origin
else
    git clone --quiet --no-checkout "$root" "$src"
fi
for pair in "${order[@]}"; do
    read -r pr rev <<<"$pair"
    out="$root/BENCH_$pr.json"
    echo "== backfill: PR $pr at ${rev:0:12} -> $(basename "$out") ($(date -u +%T)) ==" >&2
    git -C "$src" checkout --quiet --force "$rev"
    git -C "$src" clean --quiet -fdx
    (
        cd "$src"
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
        cargo build --release --offline --quiet -p axml-bench --bin peerd >&2
    )
    git -C "$src" checkout --quiet -- benchmark/Cargo.lock
    rm -f "$out"
    (
        cd "$src"
        "$CARGO_TARGET_DIR/release/axml-perf" bench --seconds "$seconds" \
            --repeat "$repeat" --seed "$seed" --out "$out" >"$work/bench_$pr.log" 2>&1
    ) || echo "backfill: PR $pr bench exited non-zero; its reasons follow" >&2
    grep -E 'exceeds its bound|check_ok = 0' "$work/bench_$pr.log" >&2 || true
    [ -f "$out" ] || { echo "backfill: PR $pr wrote no ledger" >&2; tail -20 "$work/bench_$pr.log" >&2; exit 1; }
done
