//! The four workloads. Each module's docs say why it exists.

pub mod edos_poll;
pub mod query_ship;
pub mod socket_ship;
pub mod sub_churn;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["query_ship", "edos_poll", "sub_churn", "socket_ship"];
