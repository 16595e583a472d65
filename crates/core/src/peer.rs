//! Per-peer state: the documents and services a peer hosts.
//!
//! §3.3 calls the union of these across all peers the system **state Σ**;
//! [`PeerState::snapshot`] contributes one peer's part of the Σ-comparison
//! used to test rule soundness (`eval@p1(e1)(Σ) = eval@p2(e2)(Σ)`).

use crate::error::{CoreError, CoreResult};
use crate::service::Service;
use axml_query::eval::DocResolver;
use axml_xml::equiv::canonical_digest;
use axml_xml::ids::{DocName, PeerId, ServiceName};
use axml_xml::store::{fresh_stamp, DocStore, Document};
use axml_xml::tree::Tree;
use std::collections::BTreeMap;

/// The local state of one peer, Σ|p. It changes only through the
/// mutable doors of its [`DocStore`] and [`PeerState::register_service`],
/// each of which draws a fresh [`PeerState::stamp`].
#[derive(Debug, Clone, Default)]
pub struct PeerState {
    /// Hosted documents.
    pub docs: DocStore,
    services: BTreeMap<ServiceName, Service>,
    /// Drawn by `register_service`; 0 for a table it never moved.
    services_stamp: u64,
    /// The last answers of this peer's services (not part of Σ|p).
    pub(crate) calls: CallMemo,
}

/// How many answers a peer keeps; a new one evicts the oldest.
const CALLS_KEPT: usize = 16;

/// A provider's last service answers. By definition (6) an answer is a
/// function of the service, the parameter forests and Σ|p, so one kept
/// at the current [`PeerState::stamp`] is the answer a fresh evaluation
/// would give. Parameters are told apart by ordered [`Tree`] equality,
/// so a reused answer is bit-identical, not only equivalent. An answer
/// may be a view of one of the peer's documents, and a view held here
/// would make the next write to that document copy all of it. So every
/// door that moves the stamp forgets the memo first:
/// [`PeerState::install_doc`], [`PeerState::register_service`], and
/// `AxmlSystem::peer_mut`, a system's one way to its documents' doors.
#[derive(Debug, Clone, Default)]
pub(crate) struct CallMemo {
    /// The stamp every kept answer was computed at.
    at: (u64, u64),
    /// Oldest first.
    kept: Vec<(ServiceName, Vec<Vec<Tree>>, Vec<Tree>)>,
}

impl CallMemo {
    /// The answer kept for `service` over `params` at stamp `at`.
    pub(crate) fn get(
        &self,
        at: (u64, u64),
        service: &ServiceName,
        params: &[Vec<Tree>],
    ) -> Option<&[Tree]> {
        if self.at != at {
            return None;
        }
        let hit = self
            .kept
            .iter()
            .find(|(s, p, _)| s == service && p == params);
        hit.map(|(_, _, results)| results.as_slice())
    }

    /// Keep an answer computed at stamp `at`, forgetting every answer
    /// kept at another stamp.
    pub(crate) fn keep(
        &mut self,
        at: (u64, u64),
        service: &ServiceName,
        params: Vec<Vec<Tree>>,
        results: Vec<Tree>,
    ) {
        if self.at != at {
            self.forget();
            self.at = at;
        }
        if self.kept.len() == CALLS_KEPT {
            self.kept.remove(0);
        }
        self.kept.push((service.clone(), params, results));
    }

    /// Forget every kept answer.
    pub(crate) fn forget(&mut self) {
        self.kept.clear();
    }
}

impl PeerState {
    /// An empty peer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a document (fails on name clash — §2.1 uniqueness).
    pub fn install_doc(&mut self, doc: Document) -> CoreResult<()> {
        self.calls.forget();
        self.docs.insert(doc)?;
        Ok(())
    }

    /// Fetch a document's tree.
    pub fn doc(&self, name: &DocName, here: PeerId) -> CoreResult<&Tree> {
        self.docs
            .get(name)
            .map(Document::tree)
            .ok_or_else(|| CoreError::NoSuchDoc {
                doc: name.clone(),
                at: here,
            })
    }

    /// Register a service (replacing any previous definition).
    pub fn register_service(&mut self, service: Service) {
        self.calls.forget();
        self.services_stamp = fresh_stamp();
        self.services.insert(service.name.clone(), service);
    }

    /// Registered services, by name.
    pub fn services(&self) -> &BTreeMap<ServiceName, Service> {
        &self.services
    }

    /// The mutation stamp of Σ|p: the documents' [`DocStore::stamp`] and
    /// the service table's, compared for equality only. Two reads
    /// returning the same pair saw the same documents and services —
    /// what every cache of a function of Σ|p keys on. (Not their `max`:
    /// `docs` may be assigned a store carrying an older stamp.)
    pub fn stamp(&self) -> (u64, u64) {
        (self.docs.stamp(), self.services_stamp)
    }

    /// Look up a service.
    pub fn service(&self, name: &ServiceName, here: PeerId) -> CoreResult<&Service> {
        self.services
            .get(name)
            .ok_or_else(|| CoreError::NoSuchService {
                service: name.clone(),
                at: here,
            })
    }

    /// A canonical snapshot of this peer's documents (name → canonical
    /// digest) and service names — one peer's contribution to Σ.
    pub fn snapshot(&self) -> PeerSnapshot {
        PeerSnapshot {
            docs: self
                .docs
                .iter()
                .map(|d| {
                    (
                        d.name().clone(),
                        canonical_digest(d.tree(), d.tree().root()),
                    )
                })
                .collect(),
            services: self.services.keys().cloned().collect(),
        }
    }
}

impl DocResolver for PeerState {
    fn resolve(&self, name: &DocName) -> Option<&Tree> {
        self.docs.get(name).map(Document::tree)
    }
}

/// Canonical image of one peer's state, comparable across runs of one
/// process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerSnapshot {
    /// Documents by name, each as its [`canonical_digest`] (sibling order
    /// erased; the digest's key is per process).
    pub docs: BTreeMap<DocName, u128>,
    /// Installed service names.
    pub services: Vec<ServiceName>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_query::Query;

    #[test]
    fn docs_and_services() {
        let mut p = PeerState::new();
        p.install_doc(Document::new("d", Tree::parse("<a/>").unwrap()))
            .unwrap();
        assert!(p
            .install_doc(Document::new("d", Tree::parse("<b/>").unwrap()))
            .is_err());
        assert!(p.doc(&"d".into(), PeerId(0)).is_ok());
        assert!(matches!(
            p.doc(&"missing".into(), PeerId(0)),
            Err(CoreError::NoSuchDoc { .. })
        ));
        let q = Query::parse("q", "$0//x").unwrap();
        p.register_service(Service::declarative("s", q));
        assert!(p.service(&"s".into(), PeerId(0)).is_ok());
        assert!(p.service(&"zz".into(), PeerId(0)).is_err());
    }

    #[test]
    fn snapshot_is_order_insensitive() {
        let mut a = PeerState::new();
        a.install_doc(Document::new("d", Tree::parse("<r><x/><y/></r>").unwrap()))
            .unwrap();
        let mut b = PeerState::new();
        b.install_doc(Document::new("d", Tree::parse("<r><y/><x/></r>").unwrap()))
            .unwrap();
        assert_eq!(a.snapshot(), b.snapshot());
        b.install_doc(Document::new("e", Tree::parse("<z/>").unwrap()))
            .unwrap();
        assert_ne!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn doc_resolver_impl() {
        let mut p = PeerState::new();
        p.install_doc(Document::new("cat", Tree::parse("<c><pkg/></c>").unwrap()))
            .unwrap();
        let q = Query::parse("q", r#"doc("cat")//pkg"#).unwrap();
        let out = q.eval_with_docs(&[], &p).unwrap();
        assert_eq!(out.len(), 1);
    }
}
