#!/usr/bin/env bash
# Build the benchmark and the root workspace's `peerd` (release, offline),
# then hand every argument to `axml-perf`. This is the `command` of
# BENCHMARK.json; the driver appends
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# See benchmark/README.md for the other subcommands (`bench`, `diff`).
set -euo pipefail
cd "$(dirname "$0")/.."
# One target directory for both builds, so `peerd` lands next to
# `axml-perf`, where the launcher looks for it.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
cargo build --release --offline --quiet -p axml-bench --bin peerd >&2
exec "$CARGO_TARGET_DIR/release/axml-perf" "$@"
