//! The message-driven evaluation engine.
//!
//! Evaluation of an expression is decomposed into **continuation
//! tasks** (one per pending definition (1)–(9) step), messages carry an
//! `Intent` describing their receiver-side effect, and an `EvalSession`
//! drives tasks and in-flight messages to quiescence. Independent
//! transfers genuinely overlap — the makespan of a fan-out is its
//! critical path, not the sum of its byte costs — while per-link
//! message/byte accounting stays that of a depth-first evaluator
//! (counters are additive and order-invariant), and sequential chains
//! (request → response) keep identical timing.
//!
//! # Module map
//!
//! * `pump` — [`Wire`], `Intent`, `Runnable`, `Cont`, `EvalSession` and
//!   the loop: `schedule`, the sequential `run_session`,
//!   `next_arrival_batch`, `deliver`, `apply_intent`, slot fill/park.
//!   Names no policy.
//! * `defs` — definitions (1)–(8): `step_eval`, `resume` and the
//!   service-call steps of §2.2.
//! * `send` — **choke point 1**: `send_wire` and its backoff, the only
//!   reader of [`crate::retry::RetryPolicy`].
//! * `any` — **choke point 2**: definition (9), the only reader of the
//!   failover switch, the [`crate::pick::PickPolicy`] and the catalog's
//!   pick; one resolve-with-failover loop for documents and services.
//! * [`crate::driver`] — **choke point 3**: the parallel driver's
//!   speculative precompute and request collapsing, reaching the
//!   committing task through the session's `Speculation` hook.

mod any;
mod defs;
mod pump;
mod send;

pub use pump::Wire;
pub(crate) use pump::{Cont, Delivery, EvalSession, Intent, Runnable};
