#![forbid(unsafe_code)]

//! # axml-bench — the experiment harness
//!
//! The EDBT 2006 paper has **no empirical evaluation section** (no tables,
//! no figures): its contribution is the algebra and the equivalence rules
//! of §3. This crate is the evaluation the paper implies: for every rule
//! (and for the worked Example 1), a deterministic experiment that measures
//! the naive strategy against the rewritten one on the simulated network,
//! sweeping the parameter that governs the trade-off. `EXPERIMENTS.md`
//! indexes them (E1–E11) and records the measured shapes.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p axml-bench --bin experiments
//! cargo run --release -p axml-bench --bin experiments -- e1 e3   # subset
//! ```
//!
//! Wall-clock numbers come from the `benchmark/` package (`axml-perf`),
//! not from this crate.
//!
//! The crate also ships `axml-trace`, a replay CLI that decodes an AXTR
//! trace file and renders a per-peer
//! timeline / message sequence chart from [`timeline`]:
//!
//! ```text
//! cargo run -p axml-bench --bin axml-trace -- run.trc --width 120 --svg run.svg
//! ```
//!
//! …and `axml-top`, a live dashboard that follows a growing trace file
//! (or, with `--listen`, the TCP stream of a `BinSink::connect`) and renders
//! per-peer latency quantiles and goodput sparklines from [`dashboard`]:
//!
//! ```text
//! cargo run -p axml-bench --bin axml-top -- run.trc --follow
//! cargo run -p axml-bench --bin axml-top -- run.trc --once   # CI snapshot
//! ```

pub mod cluster;
pub mod dashboard;
pub mod experiments;
pub mod report;
pub mod timeline;
pub mod workload;
