#![deny(missing_docs)]

//! # axml-query — the declarative XML query language of AXML peers
//!
//! The paper (§2.2) relies on *declarative Web services* whose
//! implementations are *"declarative XML query or update statements,
//! possibly parameterized"*, visible to other peers — that visibility is
//! what enables every optimization of §3. This crate is that query
//! subsystem:
//!
//! * a **textual FLWR language** (`for $x in $0//pkg where … return <r>…</r>`)
//!   with paths, predicates, joins over several `for` clauses, `let`
//!   bindings and XML construction templates, parsed straight into plans
//!   ([`parser`]),
//! * a **logical algebra** of plans (DataFusion-style: a tree of operators
//!   with visitor/rewriter infrastructure) ([`plan`]),
//! * a **batch evaluator** over forests of input trees and a
//!   **continuous/incremental evaluator** ([`eval`], [`delta`]) — the
//!   paper's services and queries are all continuous (§2.2), consuming
//!   streams of trees that accumulate under nodes,
//! * **decomposition** of queries — the basis of the paper's equivalence
//!   rule (11) and of Example 1 (*pushing selections*) ([`rewrite`]);
//!   the composition `q1(q2(…))` it yields is the algebra's, an `Apply`
//!   over an `Apply` in `axml-core`, not a kind of [`Query`], and
//! * **cardinality and result-size estimation** feeding the distributed
//!   cost model of `axml-core` ([`estimate`]).
//!
//! ```
//! use axml_query::Query;
//! use axml_xml::tree::Tree;
//!
//! let q = Query::parse(
//!     "lookup",
//!     r#"for $p in $0//pkg where $p/@name = "vim" return <hit>{$p/version}</hit>"#,
//! ).unwrap();
//! let catalog = Tree::parse(
//!     r#"<c><pkg name="vim"><version>9.1</version></pkg>
//!        <pkg name="gcc"><version>13</version></pkg></c>"#).unwrap();
//! let out = q.eval_batch(&[vec![catalog]]).unwrap();
//! assert_eq!(out.len(), 1);
//! assert_eq!(out[0].serialize(), "<hit><version>9.1</version></hit>");
//! ```

pub mod delta;
pub mod error;
pub mod estimate;
pub mod eval;
pub mod matcher;
pub mod parser;
pub mod plan;
pub mod query;
pub mod rewrite;

pub use error::{QueryError, QueryResult};
pub use matcher::{MatchIndex, Registration};
pub use query::Query;
