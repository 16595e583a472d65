//! Replica maintenance for generic documents — the paper's reference
//! \[3\] (*"Dynamic XML documents with distribution and replication"*,
//! SIGMOD'03), which §2.3's generic documents presuppose: `d@any` only
//! makes sense if the members of the equivalence class are *kept*
//! equivalent as they evolve.
//!
//! [`AxmlSystem::feed_replicas`] is the write path: an update enters at
//! one replica and is shipped (one charged transfer per sibling) to every
//! other member of the class, firing the continuous subscriptions on each
//! hosting peer. After any sequence of class-level feeds, all replicas are
//! equivalent — property-tested in `tests/prop_rules.rs`'s sibling suite
//! and unit-tested here.

use crate::engine::{EvalSession, Intent};
use crate::error::{CoreError, CoreResult};
use crate::message::{AxmlMessage, Body};
use crate::system::AxmlSystem;
use axml_obs::DataTag;
use axml_xml::ids::{DocName, PeerId};
use axml_xml::tree::Tree;

impl AxmlSystem {
    /// Propagate an update to every replica of the document class:
    /// append `tree` to the replica at `origin`, ship it to each sibling
    /// replica (the updates travel concurrently — one in-flight message
    /// per sibling link), and fire the continuous subscriptions
    /// everywhere. Returns the total number of result trees delivered
    /// downstream.
    pub fn feed_replicas(
        &mut self,
        origin: PeerId,
        class: &DocName,
        tree: Tree,
    ) -> CoreResult<usize> {
        self.blocking(
            |sys, s| sys.feed_replicas_into(s, origin, class, tree),
            |s, local| Ok(local + s.delivered),
        )
    }

    fn feed_replicas_into(
        &mut self,
        s: &mut EvalSession,
        origin: PeerId,
        class: &DocName,
        tree: Tree,
    ) -> CoreResult<usize> {
        self.check_peer(origin)?;
        let members: Vec<(PeerId, DocName)> = self.catalog.doc_replicas(class).to_vec();
        if members.is_empty() {
            return Err(CoreError::EmptyEquivalenceClass(class.to_string()));
        }
        let Some((_, origin_doc)) = members.iter().find(|(p, _)| *p == origin) else {
            return Err(CoreError::NoSuchDoc {
                doc: class.clone(),
                at: origin,
            });
        };
        let origin_doc = origin_doc.clone();
        // Local write first…
        let delivered = self.feed_into(s, origin, &origin_doc, tree.clone())?;
        // …then one charged transfer per sibling replica; the sibling's
        // own write (and its subscription pumps) happens on arrival. The
        // update is measured once, and shared, for all of them.
        let update = Body::shared(vec![tree]);
        for (peer, concrete) in members {
            if peer == origin {
                continue;
            }
            self.send_wire(
                s,
                origin,
                peer,
                AxmlMessage::Data {
                    payload: update.clone(),
                    tag: DataTag::ReplicaUpdate,
                },
                Intent::ReplicaFeed { doc: concrete },
            )?;
        }
        Ok(delivered)
    }

    /// Are all replicas of the class currently equivalent (unordered
    /// deep-equivalence of their trees: equal root digests)?
    pub fn replicas_consistent(&self, class: &DocName) -> CoreResult<bool> {
        let mut first = None;
        for (peer, concrete) in self.catalog.doc_replicas(class) {
            let tree = self.peer(*peer).doc(concrete, *peer)?;
            let digest = axml_xml::equiv::canonical_digest(tree, tree.root());
            if *first.get_or_insert(digest) != digest {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_net::link::LinkCost;
    use axml_xml::equiv::forest_equiv;

    fn build() -> (AxmlSystem, PeerId, PeerId, PeerId) {
        let mut sys = AxmlSystem::new();
        let a = sys.add_peer("origin");
        let b = sys.add_peer("mirror-1");
        let c = sys.add_peer("mirror-2");
        for (x, y) in [(a, b), (a, c), (b, c)] {
            sys.net_mut().set_link(x, y, LinkCost::wan());
        }
        let base = Tree::parse("<catalog/>").unwrap();
        sys.install_replica(a, "cat", "cat-a", base.clone())
            .unwrap();
        sys.install_replica(b, "cat", "cat-b", base.clone())
            .unwrap();
        sys.install_replica(c, "cat", "cat-c", base).unwrap();
        (sys, a, b, c)
    }

    #[test]
    fn updates_reach_every_replica() {
        let (mut sys, a, _b, _c) = build();
        assert!(sys.replicas_consistent(&"cat".into()).unwrap());
        let rendered = crate::message::tests::BODY_RENDERS.get();
        sys.feed_replicas(
            a,
            &"cat".into(),
            Tree::parse(r#"<pkg name="vim"/>"#).unwrap(),
        )
        .unwrap();
        let now = crate::message::tests::BODY_RENDERS.get();
        assert_eq!(now, rendered, "the simulator charges by length alone");
        assert!(sys.replicas_consistent(&"cat".into()).unwrap());
        for (peer, name) in [
            (PeerId(0), "cat-a"),
            (PeerId(1), "cat-b"),
            (PeerId(2), "cat-c"),
        ] {
            let t = sys.peer(peer).docs.get(&name.into()).unwrap().tree();
            assert_eq!(t.children(t.root()).len(), 1, "{name}");
        }
        // exactly 2 replica-update transfers (origin → each sibling)
        assert_eq!(sys.stats().total_messages(), 2);
    }

    #[test]
    fn updates_can_originate_anywhere() {
        let (mut sys, a, b, _c) = build();
        sys.feed_replicas(
            a,
            &"cat".into(),
            Tree::parse(r#"<pkg name="one"/>"#).unwrap(),
        )
        .unwrap();
        sys.feed_replicas(
            b,
            &"cat".into(),
            Tree::parse(r#"<pkg name="two"/>"#).unwrap(),
        )
        .unwrap();
        assert!(sys.replicas_consistent(&"cat".into()).unwrap());
        // reads from any replica agree
        let mut reads = Vec::new();
        for p in [PeerId(0), PeerId(1), PeerId(2)] {
            let out = sys
                .eval(
                    p,
                    &crate::expr::Expr::Doc {
                        name: "cat".into(),
                        at: crate::expr::PeerRef::Any,
                    },
                )
                .unwrap();
            reads.push(out);
        }
        assert!(forest_equiv(&reads[0], &reads[1]));
        assert!(forest_equiv(&reads[1], &reads[2]));
    }

    #[test]
    fn subscriptions_fire_on_each_replica() {
        let (mut sys, a, b, _c) = build();
        // A watcher subscribed to a service over mirror-1's replica.
        let w = sys.add_peer("watcher");
        sys.net_mut().set_link(w, b, LinkCost::lan());
        sys.register_declarative_service(b, "watch", r#"doc("cat-b")/pkg"#)
            .unwrap();
        sys.install_doc(
            w,
            "inbox",
            Tree::parse(r#"<inbox><sc><peer>p1</peer><service>watch</service></sc></inbox>"#)
                .unwrap(),
        )
        .unwrap();
        sys.activate_document(w, &"inbox".into()).unwrap();
        // An update fed at the *origin* replica still reaches the watcher.
        let delivered = sys
            .feed_replicas(
                a,
                &"cat".into(),
                Tree::parse(r#"<pkg name="new"/>"#).unwrap(),
            )
            .unwrap();
        assert_eq!(delivered, 1);
        let inbox = sys.peer(w).docs.get(&"inbox".into()).unwrap().tree();
        assert!(inbox.serialize().contains("new"));
    }

    #[test]
    fn errors_on_unknown_class_or_non_member() {
        let (mut sys, _a, _b, _c) = build();
        let w = sys.add_peer("outsider");
        assert!(matches!(
            sys.feed_replicas(w, &"cat".into(), Tree::parse("<x/>").unwrap()),
            Err(CoreError::NoSuchDoc { .. })
        ));
        assert!(matches!(
            sys.feed_replicas(w, &"nope".into(), Tree::parse("<x/>").unwrap()),
            Err(CoreError::EmptyEquivalenceClass(_))
        ));
    }

    #[test]
    fn consistency_detects_drift() {
        let (mut sys, a, _b, _c) = build();
        // A direct (non-replicated) feed to one member causes drift.
        sys.feed(a, "cat-a", Tree::parse(r#"<pkg name="rogue"/>"#).unwrap())
            .unwrap();
        assert!(!sys.replicas_consistent(&"cat".into()).unwrap());
    }
}
