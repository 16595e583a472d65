#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! # axml — distributed XML data management
//!
//! A complete, from-scratch Rust implementation of
//! **“A Framework for Distributed XML Data Management”**
//! (Serge Abiteboul, Ioana Manolescu, Emanuel Taropa — EDBT 2006):
//! Active XML documents, declarative continuous Web services, the algebra
//! `E` of distributed expressions with evaluation definitions (1)–(9), the
//! equivalence rules (10)–(16), a network-aware cost model, and a
//! cost-based distributed optimizer — all running over a deterministic
//! discrete-event network simulator.
//!
//! This facade crate re-exports the six subsystem crates:
//!
//! * [`xml`] (`axml-xml`) — unordered XML trees, parser/serializer,
//!   documents, canonical equivalence;
//! * [`types`] (`axml-types`) — the type system Θ: regular tree grammars,
//!   derivative-based content models, validation;
//! * [`query`] (`axml-query`) — the declarative query language: FLWR
//!   syntax, logical plans, batch + continuous evaluation, composition
//!   and decomposition, cardinality estimation, and what a plan's answers
//!   can hold — a declarative service's output type is its plan's;
//! * [`net`] (`axml-net`) — the simulated peer network: link cost models,
//!   topologies, per-link statistics;
//! * [`core`] (`axml-core`) — the paper's contribution: AXML documents
//!   and `sc` elements, peers and services, the expression algebra and
//!   its evaluator, continuous subscriptions, rewrite rules, cost model
//!   and optimizer;
//! * [`obs`] (`axml-obs`) — the observability layer: structured
//!   [`TraceEvent`](obs::TraceEvent)s mapping evaluation back to the
//!   paper's definitions (1)–(9) and rules (10)–(16), aggregated
//!   [`EvalMetrics`](obs::EvalMetrics), and the
//!   [`RunReport`](obs::RunReport) (text + JSON) that reconciles exactly
//!   with the network statistics. See `OBSERVABILITY.md`.
//!
//! ## Quickstart
//!
//! ```
//! use axml::prelude::*;
//!
//! let mut sys = AxmlSystem::builder()
//!     .peers(["client", "server"])
//!     .link("client", "server", LinkCost::wan())
//!     .doc("server", "catalog",
//!         r#"<catalog><pkg name="vim"><size>4000</size></pkg></catalog>"#)
//!     .build()
//!     .unwrap();
//! let (client, server) = (sys.peer_id("client").unwrap(), sys.peer_id("server").unwrap());
//!
//! // Naive plan: fetch the whole catalog, filter at the client.
//! let q = Query::parse("big",
//!     r#"for $p in $0//pkg where $p/size/text() > 1000 return {$p/@name}"#).unwrap();
//! let naive = Expr::Apply {
//!     query: LocatedQuery::new(q, client),
//!     args: vec![Expr::Doc { name: "catalog".into(), at: PeerRef::At(server) }],
//! };
//!
//! // The optimizer rewrites it with the paper's rules (10)/(11).
//! let model = CostModel::from_system(&sys);
//! let plan = Optimizer::standard().optimize(&model, client, &naive);
//! let out = sys.eval(client, &plan.expr).unwrap();
//! assert_eq!(out.len(), 1);
//! ```
//!
//! See `examples/` for runnable scenarios and `EXPERIMENTS.md` for the
//! benchmark suite.

pub use axml_core as core;
pub use axml_net as net;
pub use axml_obs as obs;
pub use axml_query as query;
pub use axml_types as types;
pub use axml_xml as xml;

/// One-stop import for applications.
pub mod prelude {
    pub use axml_core::cost::CostModel;
    pub use axml_core::prelude::*;
    pub use axml_query::Query;
    pub use axml_types::{Content, Schema, SchemaBuilder};
    pub use axml_xml::equiv::{forest_equiv, tree_equiv, whole_tree_equiv};
    pub use axml_xml::tree::{NodeId, Tree};
}
