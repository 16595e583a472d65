//! Declarative Web services — §2.1–2.2.
//!
//! A service `s@p` is a named, typed operation provided by a peer. The
//! services of interest here are *declarative*: implemented by a visible
//! [`Query`], which is what makes the optimizations of §3 possible
//! (*"the statements implementing such services are visible to other
//! peers, enabling many optimizations"*). All services are continuous, as
//! in the paper's model (§2.2 last paragraph).

use axml_query::Query;
use axml_types::Signature;
use axml_xml::ids::ServiceName;
use std::fmt;

/// A service registered on a peer.
#[derive(Debug, Clone)]
pub struct Service {
    /// The service name `s ∈ S`.
    pub name: ServiceName,
    /// The declarative implementation. Its arity is the service's input
    /// arity `n`.
    pub query: Query,
    /// The `(τin, τout)` signature.
    pub signature: Signature,
}

impl Service {
    /// A continuous declarative service with a wildcard signature.
    pub fn declarative(name: impl Into<ServiceName>, query: Query) -> Self {
        let arity = query.arity();
        Service {
            name: name.into(),
            query,
            signature: Signature::any(arity),
        }
    }

    /// Attach a precise signature.
    pub fn with_signature(mut self, signature: Signature) -> Self {
        self.signature = signature;
        self
    }

    /// The input arity `n` of the service.
    pub fn arity(&self) -> usize {
        self.query.arity()
    }
}

impl fmt::Display for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_types::TreeType;

    #[test]
    fn construction_and_arity() {
        let q = Query::parse("impl", "for $x in $0//pkg return {$x}").unwrap();
        let s = Service::declarative("catalog-scan", q);
        assert_eq!(s.arity(), 1);
        assert_eq!(s.signature.arity(), 1);
        assert_eq!(s.name.as_str(), "catalog-scan");
    }

    #[test]
    fn builders() {
        let q = Query::parse("impl", "for $x in $0 return {$x}").unwrap();
        let s = Service::declarative("s", q).with_signature(Signature::new(
            vec![TreeType::new("catalog", "xs:anyType")],
            TreeType::any(),
        ));
        assert_eq!(
            s.signature.inputs[0].root_label.as_ref().unwrap().as_str(),
            "catalog"
        );
        assert!(s.to_string().contains("s:"), "{s}");
    }
}
