//! The message-driven evaluation engine.
//!
//! Evaluation of an expression is decomposed into **continuation
//! tasks** (one per pending definition (1)–(9) step), a message's
//! receiver reads what to do off the message (with an `Intent` beside it
//! for what the frame does not carry yet) and writes its effect, also
//! for a send to oneself, and an `EvalSession`
//! drives tasks and in-flight messages to quiescence. Independent
//! transfers genuinely overlap — the makespan of a fan-out is its
//! critical path, not the sum of its byte costs — while per-link
//! message/byte accounting stays that of a depth-first evaluator
//! (counters are additive and order-invariant), and sequential chains
//! (request → response) keep identical timing.
//!
//! `eval@p(e)` is [`AxmlSystem::eval`](crate::system::AxmlSystem::eval)`(p, e)`:
//! it returns the forest that materializes **at peer `p`** and performs
//! every side effect the paper describes — data/query shipping as real
//! (simulated) messages, results accumulating under forward-list nodes,
//! new documents and services installed. Evaluation is one-shot over the
//! current state (continuous propagation is in [`crate::continuous`]);
//! remote evaluation requests ship the serialized expression and are
//! charged like any other message.
//!
//! | def. | case |
//! |------|------|
//! | (1)  | [`crate::expr::Expr::Tree`] at `p` — copy the tree, activating embedded `sc` nodes |
//! | (2)  | [`crate::expr::Expr::Apply`] with a local definition |
//! | (3)  | [`crate::expr::Expr::Send`] to a peer — value ∅, data moves |
//! | (4)  | `Send` to a node list — appended under each `n@p` |
//! | (5)  | `Tree`/`Doc` located remotely — the remote peer evaluates and ships back |
//! | (6)  | [`crate::expr::Expr::Sc`] — params to provider, provider applies its query, results to the forward list |
//! | (7)  | `Apply` with a remote definition — query and arguments shipped to the evaluation site |
//! | (8)  | [`crate::expr::Expr::Deploy`] — a shipped query becomes a new service |
//! | (9)  | `PeerRef::Any` resolved via `pickDoc`/`pickService` |
//!
//! # Module map
//!
//! * `pump` — [`Wire`], `Intent`, `Runnable`, `Cont`, `EvalSession` and
//!   the loop: `schedule`, the one session loop `run_session`,
//!   `next_arrival_batch` (one arrival buffer), `deliver`, the one
//!   receiver `receive`, slot fill/park (flat result slots); also
//!   `blocking`, the one place a session is opened and handed back for
//!   reuse — `eval`, `activate_document`, `feed`, `feed_replicas` and the
//!   lazy activations' `call_service` all go through it. Names no policy.
//! * `defs` — definitions (1)–(8): `step_eval`, `resume` and the
//!   service-call steps of §2.2, whose provider-side evaluation
//!   (`service_results`) reuses an answer through the provider's
//!   stamp-guarded call memo, and the effects only `receive` runs.
//! * `send` — **choke point 1**: `send_wire` and its backoff, the only
//!   reader of [`crate::retry::RetryPolicy`].
//! * `any` — **choke point 2**: definition (9), the only reader of the
//!   failover switch, the [`crate::pick::PickPolicy`] and the catalog's
//!   pick; one resolve-with-failover loop for documents and services.

mod any;
mod defs;
mod pump;
mod send;

pub use pump::Wire;
pub(crate) use pump::{EvalSession, Intent};
