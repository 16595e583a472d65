#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! # axml-types — the XML type system Θ
//!
//! §2.1 of the paper assumes *"the set Θ of all XML tree types, as
//! expressed for instance in XML Schema"*. This crate implements the
//! fragment of XML Schema the paper actually needs:
//!
//! * **regular tree grammars**: named element types with regex content
//!   models — sequence, choice, optional, star, plus, interleave (the
//!   unordered-children combinator matching AXML's unordered tree model)
//!   and wildcards ([`content`]),
//! * content-model matching by **Brzozowski derivatives** — no automaton
//!   construction, works directly on the model AST,
//! * **schemas** with the single-type (consistent element declaration)
//!   restriction of XML Schema, validated at construction ([`schema`]),
//! * **validation** of trees against types, with error paths — what
//!   type-driven activation checks a document against. (A declarative
//!   service's `(τin, τout)` is its plan's: `axml_query::shape`.)
//!
//! ```
//! use axml_types::schema::SchemaBuilder;
//! use axml_types::content::Content;
//! use axml_xml::tree::Tree;
//!
//! let schema = SchemaBuilder::new()
//!     .ty("CatalogT", Content::star(Content::elem("pkg", "PkgT")))
//!     .ty("PkgT", Content::seq([Content::elem("name", "TextT"),
//!                               Content::elem("version", "TextT")]))
//!     .ty("TextT", Content::Text)
//!     .build()
//!     .unwrap();
//! let doc = Tree::parse(
//!     "<catalog><pkg><name>vim</name><version>9.1</version></pkg></catalog>").unwrap();
//! assert!(schema.validate(&doc, "CatalogT").is_ok());
//! ```

pub mod content;
pub mod error;
pub mod schema;

pub use content::Content;
pub use error::{TypeError, TypeResult};
pub use schema::{Schema, SchemaBuilder, TypeName};
