#!/usr/bin/env bash
# A claim's evidence: alternating pairs of benchmark runs, base against
# change, with raw time beside normalised.
#
#   scripts/pairs.sh <base-rev> [--change <rev>] [--workload w]… [--pairs n]
#                    [--seconds s] [--seed0 k] [--json PATH] [--wire-change]
#                    [--dir PATH]
#
# Each side is a `git archive` of its rev in a directory of its own,
# with a target directory of its own, built and run by that rev's own
# `benchmark/run.sh` (a smoke run builds it first). Pair i runs both
# sides on seed k+i, for s seconds each, and the side that runs first
# alternates (base first in even pairs), so a drift of the machine
# during the campaign lands on both sides alike.
#
# Per workload it prints, for each side, the median and q1–q3 over the
# pairs, the change of the medians, and in how many pairs the change
# was better (a tie is not a win), for
#   - the normalised end-to-end metrics `ops_per_s`, `op_latency_p50_us`,
#     `op_latency_p95_us` and `setup_s`;
#   - the raw wall times of the `raw wall` line: the epoch-mean op time
#     (each run's median over its epochs) and the set-up median;
#   - the reference kernel's median (`ref kernel` line), which the
#     normalised metrics are divided by: a claim reads the raw figure
#     unless the kernel reads equal on both sides within the pair spread.
# Every pair must read equal `wire_bytes_per_op` and `virtual_ms_per_op`
# (to 1e-9 relative, the rounding of a per-op mean over a different
# number of epochs), or the script fails, unless `--wire-change` says the
# change is meant to move them; every run must report `check_ok` 1 and no
# failed operation.
#
#   --change <rev>   the change side (default HEAD)
#   --workload w     repeatable (default query_ship)
#   --pairs n        (default 10)
#   --seconds s      run length (default BENCHMARK.json's run_seconds)
#   --seed0 k        first seed (default 1)
#   --json PATH      also write the table as JSON
#   --dir PATH       checkout and build directory, kept and reused by a
#                    later campaign on the same revs (default a fresh
#                    temporary directory, removed at the end)
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
usage() {
    sed -n '5,7p' "$0" | sed 's/^#//' >&2
    exit 2
}
[ "$#" -gt 0 ] || usage

base_rev="$1"
shift
change_rev=HEAD
workloads=()
pairs=10
seconds="$(sed -nE 's/.*"run_seconds": *([0-9.]+).*/\1/p' "$root/BENCHMARK.json")"
seed0=1
json=""
wire_change=0
work=""
while [ "$#" -gt 0 ]; do
    case "$1" in
        --change) change_rev="$2"; shift 2 ;;
        --workload) workloads+=("$2"); shift 2 ;;
        --pairs) pairs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --seed0) seed0="$2"; shift 2 ;;
        --json) json="$2"; shift 2 ;;
        --wire-change) wire_change=1; shift ;;
        --dir) work="$2"; shift 2 ;;
        *) echo "pairs: unknown argument $1" >&2; usage ;;
    esac
done
[ "${#workloads[@]}" -gt 0 ] || workloads=(query_ship)
[ "$pairs" -gt 0 ] || { echo "pairs: --pairs must be positive" >&2; exit 2; }

resolve() {
    git -C "$root" rev-parse --verify --quiet "$1^{commit}" \
        || { echo "pairs: unknown rev $1" >&2; exit 2; }
}
base="$(resolve "$base_rev")"
change="$(resolve "$change_rev")"

if [ -z "$work" ]; then
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
fi
mkdir -p "$work"

# side name -> checkout directory, each with its own target directory
checkout() {
    local side="$1" rev="$2" dir="$work/$1"
    if [ "$(cat "$dir.rev" 2>/dev/null)" != "$rev" ]; then
        rm -rf "$dir" "$dir.rev"
        mkdir -p "$dir"
        git -C "$root" archive "$rev" | tar -x -C "$dir"
        echo "$rev" >"$dir.rev"
    fi
    echo "== pairs: building $side at ${rev:0:12} ($(date -u +%T)) ==" >&2
    (cd "$dir" && CARGO_TARGET_DIR="$dir/.bench_build" \
        bash benchmark/run.sh --workload "${workloads[0]}" --smoke --trace 0 >/dev/null)
}
checkout base "$base"
checkout change "$change"

# One run: a row of `side pair seed` and the figures it reports.
runs="$work/runs.tsv"
: >"$runs"
run() {
    local side="$1" workload="$2" pair="$3" seed="$4" dir="$work/$1" out
    out="$(cd "$dir" && CARGO_TARGET_DIR="$dir/.bench_build" bash benchmark/run.sh \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)"
    awk -v side="$side" -v w="$workload" -v pair="$pair" -v seed="$seed" '
        function median_of(list,    n, v, i, j, t) {
            gsub(/[\[\],]/, " ", list)
            n = split(list, v, " ")
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; j--) {
                    t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
                }
            return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
        }
        /^  raw wall/ {
            sub(/.*set-up median=/, ""); raw_setup = $1
            sub(/.*epoch mean op /, ""); sub(/ us$/, ""); raw_op = median_of($0)
        }
        /^  ref kernel/ { sub(/.*median=/, ""); kernel = $1 }
        /^  failed_op_ratio/ { failed = $2; check = $NF }
        # an end-to-end metric at full precision, from the result line
        function metric(name) {
            if (!match(line, "\"" name "\":\\{\"value\":[^,]*")) return "nan"
            return substr(line, RSTART + length(name) + 12, RLENGTH - length(name) - 12)
        }
        /^\{/ { line = $0 }
        END {
            print w, pair, seed, side, metric("ops_per_s"), metric("op_latency_p50_us"),
                metric("op_latency_p95_us"), metric("setup_s"), raw_op, raw_setup, kernel,
                metric("wire_bytes_per_op"), metric("virtual_ms_per_op"), failed, check
        }' OFS='\t' <<<"$out" >>"$runs"
}

for workload in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((seed0 + i))
        echo "== pairs: $workload pair $((i + 1))/$pairs seed $seed ($(date -u +%T)) ==" >&2
        if [ $((i % 2)) -eq 0 ]; then
            run base "$workload" "$i" "$seed"
            run change "$workload" "$i" "$seed"
        else
            run change "$workload" "$i" "$seed"
            run base "$workload" "$i" "$seed"
        fi
    done
done

echo "base ${base:0:12} · change ${change:0:12} · $pairs pairs of ${seconds} s per workload, seeds $seed0–$((seed0 + pairs - 1))"
awk -F'\t' -v json="$json" -v wire_change="$wire_change" \
    -v base="$base" -v change="$change" -v seconds="$seconds" '
    function sort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    # the p-quantile of a sorted list, linearly interpolated
    function q(a, n, p,    h, lo) {
        h = (n - 1) * p; lo = int(h)
        return lo + 1 >= n ? a[n] : a[lo + 1] + (h - lo) * (a[lo + 2] - a[lo + 1])
    }
    function f(x) {
        return x >= 1000 ? sprintf("%.0f", x) : sprintf("%.4g", x)
    }
    function same(x, y) {
        x += 0; y += 0
        return x == y || (x - y) * (x - y) <= 1e-18 * (x * x + y * y)
    }
    {
        w = $1; p = $2; side = $4
        if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
        if (!((w, p) in pseen)) { pseen[w, p] = 1; np[w]++ }
        for (c = 5; c <= 11; c++) v[w, p, side, c] = $c + 0
        wire[w, p, side] = $12; vms[w, p, side] = $13
        if ($14 + 0 != 0 || $15 + 0 != 1) {
            printf "pairs: %s pair %d (%s) failed_op_ratio %s check_ok %s\n", w, p + 1, side, $14, $15 > "/dev/stderr"
            bad = 1
        }
    }
    END {
        split("ops_per_s op_latency_p50_us op_latency_p95_us setup_s raw_op_us raw_setup_s kernel_us", name, " ")
        split("1 0 0 0 0 0 0", higher, " ")
        printf "%-12s %-17s %30s %30s %9s %6s\n", "workload", "metric", "base median (q1–q3)", "change median (q1–q3)", "change", "wins"
        if (json != "") printf "{\"base\":\"%s\",\"change\":\"%s\",\"seconds\":%s,\"rows\":[", base, change, seconds > json
        rows = 0
        for (k = 1; k <= nw; k++) {
            w = order[k]; n = np[w]; differ = 0
            for (p = 0; p < n; p++)
                if (!same(wire[w, p, "base"], wire[w, p, "change"]) || !same(vms[w, p, "base"], vms[w, p, "change"])) {
                    printf "pairs: %s pair %d: wire bytes %s vs %s, virtual ms %s vs %s\n", w, p + 1,
                        wire[w, p, "base"], wire[w, p, "change"], vms[w, p, "base"], vms[w, p, "change"] > "/dev/stderr"
                    differ = moved = 1
                }
            for (m = 1; m <= 7; m++) {
                c = m + 4; wins = 0
                for (p = 0; p < n; p++) {
                    a[p + 1] = v[w, p, "base", c]; b[p + 1] = v[w, p, "change", c]
                    if (higher[m] ? b[p + 1] > a[p + 1] : b[p + 1] < a[p + 1]) wins++
                }
                sort(a, n); sort(b, n)
                ma = q(a, n, 0.5); mb = q(b, n, 0.5)
                pct = ma != 0 ? 100 * (mb - ma) / ma : 0
                printf "%-12s %-17s %30s %30s %+8.2f%% %3d/%-2d\n", w, name[m],
                    f(ma) " (" f(q(a, n, 0.25)) "–" f(q(a, n, 0.75)) ")",
                    f(mb) " (" f(q(b, n, 0.25)) "–" f(q(b, n, 0.75)) ")", pct, wins, n
                if (json != "")
                    printf "%s{\"workload\":\"%s\",\"metric\":\"%s\",\"base\":{\"median\":%.6g,\"q1\":%.6g,\"q3\":%.6g},\"change\":{\"median\":%.6g,\"q1\":%.6g,\"q3\":%.6g},\"change_pct\":%.4f,\"wins\":%d,\"pairs\":%d}",
                        rows++ ? "," : "", w, name[m], ma, q(a, n, 0.25), q(a, n, 0.75),
                        mb, q(b, n, 0.25), q(b, n, 0.75), pct, wins, n > json
            }
            printf "%-12s %-17s %s\n", w, "wire/virtual ms", differ ? "DIFFER" : "equal in every pair"
        }
        if (json != "") printf "],\"wire_equal\":%s}\n", moved ? "false" : "true" > json
        if (bad) exit 1
        if (moved && !wire_change) {
            print "pairs: wire bytes or virtual ms moved; pass --wire-change if the change means it" > "/dev/stderr"
            exit 1
        }
    }' "$runs"
