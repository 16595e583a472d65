#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! # axml-core — distributed AXML: the paper's contribution
//!
//! This crate implements the full system of *"A Framework for Distributed
//! XML Data Management"* (Abiteboul, Manolescu, Taropa — EDBT 2006):
//!
//! * **AXML documents** with `sc` (service call) elements, activation
//!   modes, forward lists and generic (`any`) references ([`sc`]),
//! * **peers** hosting documents, declarative services and queries
//!   ([`peer`], [`service`], [`system`]),
//! * the **algebra `E` of distributed expressions** ([`expr`]) and its
//!   evaluation semantics, definitions (1)–(9)
//!   ([`AxmlSystem::eval`], [`engine`]),
//! * **continuous services**: live subscriptions streaming deltas to
//!   forward-list sinks ([`continuous`]), and replica maintenance for
//!   generic document classes ([`replication`]),
//! * **lazy and type-driven activation** of embedded calls ([`lazy`]),
//! * the **equivalence rules (10)–(16)** as rewrite rules ([`rules`]),
//!   a network-aware **cost model** ([`cost`]) and a **cost-based
//!   optimizer** with explain traces ([`optimizer`]),
//! * `pickDoc`/`pickService` policies for generic references ([`pick`]),
//! * a **message-driven evaluation engine** — continuation tasks over
//!   the discrete-event network, with one arrival buffer that delivers
//!   each instant's messages receiver by receiver, so independent
//!   transfers overlap, in a session the system keeps and reuses, so a
//!   message moves without allocating ([`engine`]) — and a fluent
//!   [`builder`] for declarative system construction.
//!
//! ## Observability
//!
//! Every evaluation step is observable: the evaluator, optimizer and
//! subscription engine record `axml_obs` [`TraceEvent`](axml_obs::TraceEvent)s
//! (definition fired, rule applied, message sent, delta shipped) into
//! an optional [`TraceSink`](axml_obs::TraceSink), and aggregate
//! [`EvalMetrics`](axml_obs::EvalMetrics) — the fold of those events —
//! that reconcile *exactly* with the network layer's `NetStats`. Use
//! [`AxmlSystem::set_trace_sink`](system::AxmlSystem::set_trace_sink) to
//! attach a sink and
//! [`AxmlSystem::run_report`](system::AxmlSystem::run_report) for a
//! text/JSON [`RunReport`](axml_obs::RunReport). See `OBSERVABILITY.md`
//! at the repository root for the full mapping to the paper.
//!
//! ## Quickstart
//!
//! ```
//! use axml_core::prelude::*;
//!
//! // Two peers over a WAN: the server hosts a catalog and a
//! // declarative service over it.
//! let mut sys = AxmlSystem::builder()
//!     .peers(["client", "server"])
//!     .link("client", "server", LinkCost::wan())
//!     .doc("server", "catalog",
//!         r#"<catalog><pkg name="vim"><size>4000</size></pkg></catalog>"#)
//!     .service("server", "names", r#"doc("catalog")//pkg/@name"#)
//!     .build()
//!     .unwrap();
//!
//! // The client calls it (definition (6)).
//! let client = sys.peer_id("client").unwrap();
//! let server = sys.peer_id("server").unwrap();
//! let out = sys.eval(client, &Expr::Sc {
//!     provider: PeerRef::At(server),
//!     service: "names".into(),
//!     params: vec![],
//!     forward: vec![],
//! }).unwrap();
//! assert_eq!(out[0].text(out[0].root()), "vim");
//! ```

pub mod builder;
pub mod continuous;
pub mod cost;
pub mod engine;
pub mod error;
pub mod expr;
pub mod lazy;
pub mod message;
pub mod optimizer;
pub mod peer;
pub mod pick;
pub mod replication;
pub mod retry;
pub mod rules;
pub mod sc;
pub mod service;
pub mod system;

pub use builder::{DocSource, PeerSel, SystemBuilder};
pub use error::{CoreError, CoreResult, EngineError};
pub use expr::{Expr, LocatedQuery, PeerRef, SendDest};
pub use retry::RetryPolicy;
pub use system::AxmlSystem;

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::builder::{DocSource, PeerSel, SystemBuilder};
    pub use crate::continuous::{MatcherMode, Subscription, Trigger};
    pub use crate::cost::{Cost, CostModel};
    pub use crate::error::{CoreError, CoreResult, EngineError};
    pub use crate::expr::{Expr, LocatedQuery, PeerRef, SendDest};
    pub use crate::optimizer::{Explained, Optimizer};
    pub use crate::pick::{Catalog, PickPolicy};
    pub use crate::retry::RetryPolicy;
    pub use crate::sc::{ActivationMode, ScNode};
    pub use crate::service::Service;
    pub use crate::system::{AxmlSystem, DriverKind};
    pub use axml_net::link::{LinkCost, Topology};
    pub use axml_net::wheel::SchedulerKind;
    pub use axml_net::{
        CrashSchedule, FaultPlan, FramedPayload, Outage, SchedStats, SimTransport, SocketTransport,
        Transport,
    };
    pub use axml_obs::{
        BinSink, DataTag, EvalMetrics, FanoutSink, FollowReader, FollowStep, LatencyHistogram,
        LiveSink, LiveStats, MemStats, MessageKind, Obs, RateWindow, RunReport, SharedBuf,
        TraceEvent, TraceReader, TraceSink, VecSink,
    };
    pub use axml_query::Query;
    pub use axml_xml::ids::{DocName, NodeAddr, PeerId, QueryName, ServiceName};
}
