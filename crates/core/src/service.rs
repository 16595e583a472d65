//! Declarative Web services — §2.1–2.2.
//!
//! A service `s@p` is a named operation provided by a peer. The services
//! of interest here are *declarative*: implemented by a visible
//! [`Query`], which is what makes the optimizations of §3 possible
//! (*"the statements implementing such services are visible to other
//! peers, enabling many optimizations"*) — its `(τin, τout)` too, read
//! off the plan (`Plan::answers`), never declared. All services are
//! continuous, as in the paper's model (§2.2 last paragraph).

use axml_query::Query;
use axml_xml::ids::ServiceName;

/// A service registered on a peer.
#[derive(Debug, Clone)]
pub struct Service {
    /// The service name `s ∈ S`.
    pub name: ServiceName,
    /// The declarative implementation. Its arity is the service's input
    /// arity `n`, and its plan says what an answer can hold.
    pub query: Query,
}

impl Service {
    /// A continuous declarative service.
    pub fn declarative(name: impl Into<ServiceName>, query: Query) -> Self {
        Service {
            name: name.into(),
            query,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_arity() {
        let q = Query::parse("impl", "for $x in $0//pkg return {$x}").unwrap();
        let s = Service::declarative("catalog-scan", q);
        assert_eq!(s.query.arity(), 1);
        assert_eq!(s.name.as_str(), "catalog-scan");
    }
}
