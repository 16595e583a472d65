//! The identifier alphabets of the paper — peers `P`, documents `D`,
//! services `S`, queries, and cross-peer node addresses `n@p`.
//!
//! Section 2 of the paper fixes four disjoint sets of names: document names
//! `D`, service names `S`, peer identifiers `P` and node identifiers `N`.
//! This module provides newtypes for each so that the rest of the system
//! cannot confuse, say, a peer with a service (the classic stringly-typed
//! bug). All are cheap to clone.

use std::fmt;
use std::sync::Arc;

/// A peer identifier `p ∈ P`.
///
/// Peers are dense small integers, assigned by the network substrate at
/// registration time; the human-readable name lives in the peer table of
/// `axml-net`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub u32);

impl PeerId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Fallible conversion from a table index: peer ids are `u32`, so a
    /// table beyond 2³² peers cannot be addressed. Mirrors
    /// [`crate::tree::NodeId::from_index`] — a typed error instead of a
    /// silent `as` truncation that would alias two peers.
    pub fn from_index(i: usize) -> crate::error::XmlResult<Self> {
        match u32::try_from(i) {
            Ok(v) => Ok(PeerId(v)),
            Err(_) => Err(crate::error::XmlError::IndexOverflow { index: i as u64 }),
        }
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

macro_rules! name_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(Arc<str>);

        impl $name {
            /// Wrap a name.
            pub fn new(s: impl AsRef<str>) -> Self {
                Self(Arc::from(s.as_ref()))
            }

            /// View as a string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }

            /// The name's shared string: a count bump, no copy.
            pub fn shared(&self) -> Arc<str> {
                Arc::clone(&self.0)
            }

            /// Byte length of the name (wire-size accounting).
            pub fn len(&self) -> usize {
                self.0.len()
            }

            /// True when the name is empty.
            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "({:?})"), &*self.0)
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                Self::new(s)
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                Self(Arc::from(s))
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                self.as_str()
            }
        }
    };
}

name_newtype!(
    /// A document name `d ∈ D`. Documents are addressed as `d@p`
    /// (a concrete document on a peer) or `d@any` (a generic document, i.e.
    /// an equivalence class of replicas — Section 2.3).
    DocName,
    "DocName"
);

name_newtype!(
    /// A service name `s ∈ S`. Services are addressed as `s@p` or `s@any`.
    ServiceName,
    "ServiceName"
);

name_newtype!(
    /// The name of a declarative query registered on a peer. The paper's
    /// declarative services are implemented by such named queries, whose
    /// statements are visible to other peers (Section 2.2).
    QueryName,
    "QueryName"
);

/// A cross-peer node address `n@p` (Section 2.3, `forw` elements).
///
/// Node identifiers are only meaningful relative to the document that owns
/// them, so a full address names the peer, the document, and the node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodeAddr {
    /// The peer on which the node lives.
    pub peer: PeerId,
    /// The document (on that peer) containing the node.
    pub doc: DocName,
    /// The node inside the document's tree.
    pub node: crate::tree::NodeId,
}

impl NodeAddr {
    /// Build an address.
    pub fn new(peer: PeerId, doc: impl Into<DocName>, node: crate::tree::NodeId) -> Self {
        NodeAddr {
            peer,
            doc: doc.into(),
            node,
        }
    }
}

impl fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}@{}", self.doc, self.node.index(), self.peer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::NodeId;

    #[test]
    fn peer_display() {
        assert_eq!(PeerId(3).to_string(), "p3");
        assert_eq!(PeerId(3).index(), 3);
    }

    #[test]
    fn peer_from_index_is_fallible() {
        assert_eq!(PeerId::from_index(42).unwrap(), PeerId(42));
        assert_eq!(PeerId::from_index(u32::MAX as usize).unwrap().0, u32::MAX);
        let too_big = u32::MAX as usize + 1;
        assert!(matches!(
            PeerId::from_index(too_big),
            Err(crate::error::XmlError::IndexOverflow { index }) if index == too_big as u64
        ));
    }

    #[test]
    fn names_roundtrip() {
        let d = DocName::new("catalog");
        assert_eq!(d.as_str(), "catalog");
        assert_eq!(d.to_string(), "catalog");
        assert_eq!(d, DocName::from("catalog"));
        assert_ne!(d, DocName::new("other"));
        assert_eq!(d.len(), 7);
        assert!(!d.is_empty());
    }

    #[test]
    fn distinct_name_types_coexist() {
        // Same text, different types — the compiler keeps them apart; this
        // test just pins the constructors.
        let _d: DocName = "x".into();
        let _s: ServiceName = "x".into();
        let _q: QueryName = String::from("x").into();
    }

    #[test]
    fn node_addr_display() {
        let a = NodeAddr::new(PeerId(1), "doc", NodeId::from_index(4).unwrap());
        assert_eq!(a.to_string(), "doc#4@p1");
    }
}
