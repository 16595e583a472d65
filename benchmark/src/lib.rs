//! # axml-perf — the repo's wall-clock perf ledger
//!
//! Four workloads over the `axml` crates, each measured end to end
//! (set-up time, throughput, latency percentiles, wire bytes, virtual
//! time, peak RSS) and layer by layer (spans around every call into a
//! crate, layer probes, twin-mode reruns). `BENCHMARK.json` at the repo
//! root names the command, workloads, metrics and regression bounds;
//! `benchmark/README.md` says how to run it and why each workload
//! exists.
//!
//! Everything is measured from outside: the benchmark times calls into
//! the crates' public functions and reads their public counters
//! (`NetStats`, `EvalMetrics`, `SchedStats`, `CopyStats`, `MemStats`,
//! `WireStats`). It changes no file of the crates it measures.

pub mod alloc;
pub mod cli;
pub mod gen;
pub mod harness;
pub mod layers;
pub mod proc;
pub mod refkernel;
pub mod results;
pub mod spec;
pub mod stats;
pub mod workloads;
