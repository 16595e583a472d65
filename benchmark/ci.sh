#!/usr/bin/env bash
# CI for the standalone benchmark workspace: format, lints, unit and
# integration tests, then a --smoke pass of every workload (1/50 of the
# op counts) through the same entry point the driver uses.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
manifest=benchmark/Cargo.toml

cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
# The socket tests launch the root workspace's peerd.
cargo build --release --offline --quiet -p axml-bench --bin peerd
AXML_PEERD="$(realpath "$CARGO_TARGET_DIR")/release/peerd" \
    cargo test --offline --release --manifest-path "$manifest"

start=$SECONDS
for workload in query_ship edos_poll sub_churn socket_ship; do
    for trace in 0 1; do
        bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 0 --trace "$trace" --smoke \
            | tail -n 1 | grep -q '"correct":true' \
            || { echo "smoke: $workload --trace $trace failed" >&2; exit 1; }
    done
done
echo "smoke pass ok in $((SECONDS - start)) s"
