#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! # axml-xml — the XML data model for distributed AXML
//!
//! This crate implements the data model of Section 2.1 of
//! *"A Framework for Distributed XML Data Management"* (Abiteboul,
//! Manolescu, Taropa — EDBT 2006):
//!
//! * **unranked, unordered XML trees** whose internal nodes carry a label
//!   from the label set `L` and an identifier from the node-id set `N`
//!   ([`tree::Tree`], [`tree::NodeId`]),
//! * **documents** `d@p`: a tree residing on exactly one peer, under a
//!   document name from `D` ([`store::Document`], [`store::DocStore`]),
//! * the identifier alphabets of the paper — peers `P`, documents `D`,
//!   services `S`, nodes `N` ([`ids`]),
//! * a hand-written XML **parser** ([`parse`]) and **serializer**
//!   ([`serialize`]) so that trees, expressions and messages can cross the
//!   (simulated) wire as text, and
//! * the **unordered deep-equivalence** and canonical hashing used as the
//!   structural basis for the paper's document-equivalence classes
//!   ([`equiv`]),
//! * the **zero-copy substrate**: labels are interned [`symbol::Label`]s
//!   (a pointer to the label's one entry: O(1) equality/hash, `Copy`,
//!   bounded against outside bytes), trees are copy-on-write
//!   handles over a shared arena, and subtrees move between layers as
//!   O(1) views of it ([`tree::Tree::subtree`]) — with every copy and
//!   avoided copy accounted in [`stats`].
//!
//! Everything above sits below the type system (`axml-types`), the query
//! language (`axml-query`), the network substrate (`axml-net`) and the
//! AXML algebra itself (`axml-core`).
//!
//! ## Quick example
//!
//! ```
//! use axml_xml::tree::Tree;
//! use axml_xml::equiv::tree_equiv;
//!
//! let a = Tree::parse(r#"<catalog><pkg name="vim"/><pkg name="gcc"/></catalog>"#).unwrap();
//! let b = Tree::parse(r#"<catalog><pkg name="gcc"/><pkg name="vim"/></catalog>"#).unwrap();
//! // Trees are unordered in the AXML model: sibling order is irrelevant.
//! assert!(tree_equiv(&a, a.root(), &b, b.root()));
//! assert_eq!(a.serialize_node(a.root()),
//!            r#"<catalog><pkg name="vim"/><pkg name="gcc"/></catalog>"#);
//! ```

pub mod equiv;
pub mod error;
pub mod escape;
pub mod ids;
pub mod parse;
pub mod serialize;
mod small;
pub mod stats;
pub mod store;
pub mod symbol;
pub mod tree;

pub use error::{XmlError, XmlResult};
pub use ids::{DocName, NodeAddr, PeerId, QueryName, ServiceName};
pub use stats::CopyStats;
pub use store::{DocStore, Document};
pub use symbol::Label;
pub use tree::{Node, NodeId, NodeKind, Tree};
