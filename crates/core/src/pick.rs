//! Generic documents/services and the `pickDoc`/`pickService` functions —
//! §2.3 and definition (9).
//!
//! A generic reference `d@any` denotes *any* member of an equivalence
//! class of replicas. The [`Catalog`] records the classes; a
//! [`PickPolicy`] implements the paper's *"the implementation of an actual
//! pick function at p depends on p's knowledge of the existing documents
//! and services, p's preferences etc."* — we provide the obvious policies
//! and benchmark them against each other (experiment E7).

use crate::error::{CoreError, CoreResult};
use axml_net::link::LinkCost;
use axml_net::sim::SimTransport;
use axml_net::Payload;
use axml_prng::SplitMix64;
use axml_xml::ids::{DocName, PeerId, ServiceName};
use axml_xml::store::fresh_stamp;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How a peer picks among the members of an equivalence class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PickPolicy {
    /// The first registered replica (registration order).
    First,
    /// The replica with the cheapest link from the picking peer (for a
    /// nominal 64 KiB transfer).
    Closest,
    /// Uniformly random with the given seed (deterministic runs).
    Random(u64),
    /// Round-robin over the class (spreads load).
    RoundRobin,
}

/// The members of every class of one kind, in registration order.
pub(crate) type Members<N> = BTreeMap<N, Vec<(PeerId, N)>>;

/// A name that can denote an equivalence class. Documents and services
/// are the two kinds; each has its own member table and its own
/// per-class cursors (advanced by the round-robin and random policies)
/// in the [`Catalog`].
pub(crate) trait ClassName: Ord + Clone + std::fmt::Display {
    /// The paper's name of the pick function for this kind.
    const PICK: &'static str;
    /// The class name's shared string.
    fn shared(&self) -> Arc<str>;
    /// This kind's member table and cursors.
    fn table(catalog: &mut Catalog) -> (&Members<Self>, &mut BTreeMap<Self, usize>);
}

impl ClassName for DocName {
    const PICK: &'static str = "pickDoc";
    fn shared(&self) -> Arc<str> {
        DocName::shared(self)
    }
    fn table(catalog: &mut Catalog) -> (&Members<Self>, &mut BTreeMap<Self, usize>) {
        (&catalog.docs, &mut catalog.rr_state)
    }
}

impl ClassName for ServiceName {
    const PICK: &'static str = "pickService";
    fn shared(&self) -> Arc<str> {
        ServiceName::shared(self)
    }
    fn table(catalog: &mut Catalog) -> (&Members<Self>, &mut BTreeMap<Self, usize>) {
        (&catalog.services, &mut catalog.rr_state_svc)
    }
}

/// The distributed catalog of equivalence classes.
///
/// The paper deliberately abstracts the network structure (*"we make no
/// assumption about the structure of the peer network, e.g. whether a
/// DHT-style index is present"*); the catalog models whatever lookup
/// facility exists, and the cost model can charge a lookup if desired.
///
/// The two member tables sit behind `Arc`s that the cost model shares.
/// They change only through [`Catalog::add_doc_replica`] and
/// [`Catalog::add_service_replica`], which copy on write and draw a
/// fresh catalog stamp; a pick moves only the cursors, which no model
/// reads.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    docs: Arc<Members<DocName>>,
    services: Arc<Members<ServiceName>>,
    rr_state: BTreeMap<DocName, usize>,
    rr_state_svc: BTreeMap<ServiceName, usize>,
    /// Drawn by the two `add_*_replica` doors; 0 for a catalog neither
    /// moved. Compared for equality only.
    stamp: u64,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare `concrete@peer` a member of the document class `class`.
    pub fn add_doc_replica(
        &mut self,
        class: impl Into<DocName>,
        peer: PeerId,
        concrete: impl Into<DocName>,
    ) {
        Arc::make_mut(&mut self.docs)
            .entry(class.into())
            .or_default()
            .push((peer, concrete.into()));
        self.stamp = fresh_stamp();
    }

    /// Declare `concrete@peer` a member of the service class `class`.
    pub fn add_service_replica(
        &mut self,
        class: impl Into<ServiceName>,
        peer: PeerId,
        concrete: impl Into<ServiceName>,
    ) {
        Arc::make_mut(&mut self.services)
            .entry(class.into())
            .or_default()
            .push((peer, concrete.into()));
        self.stamp = fresh_stamp();
    }

    /// Members of a document class.
    pub fn doc_replicas(&self, class: &DocName) -> &[(PeerId, DocName)] {
        self.docs.get(class).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Members of a service class.
    pub fn service_replicas(&self, class: &ServiceName) -> &[(PeerId, ServiceName)] {
        self.services.get(class).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The catalog's mutation stamp: two reads returning the same stamp
    /// saw the same classes, members and member order.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// The shared document and service member tables, and the stamp
    /// they stand at.
    pub(crate) fn tables(&self) -> (Arc<Members<DocName>>, Arc<Members<ServiceName>>, u64) {
        (
            Arc::clone(&self.docs),
            Arc::clone(&self.services),
            self.stamp,
        )
    }

    /// `pickDoc(d@any)` / `pickService(s@any)` evaluated at `at` —
    /// definition (9).
    ///
    /// With `excluded` empty the pick is *blind*: every member is a
    /// candidate, reachable or not (a peer only discovers a dead
    /// replica by timing out on it). A non-empty `excluded` is the
    /// failover re-pick: the engine lists the replicas it has already
    /// failed to reach, and the candidates are the remaining members
    /// currently reachable from `at` (link administratively up, no
    /// fault-plan outage, peer not crashed).
    pub(crate) fn pick<N: ClassName, M: Payload>(
        &mut self,
        policy: PickPolicy,
        at: PeerId,
        class: &N,
        net: &SimTransport<M>,
        excluded: &[PeerId],
    ) -> CoreResult<(PeerId, N)> {
        let (members, cursors) = N::table(self);
        let members = members.get(class).map_or(&[][..], Vec::as_slice);
        // The candidates are walked where they are registered, and the
        // pick is an index among them.
        let candidates = || {
            members.iter().filter(|(p, _)| {
                excluded.is_empty() || (!excluded.contains(p) && net.reachable(at, *p))
            })
        };
        let count = candidates().count();
        if count == 0 {
            return Err(CoreError::EmptyEquivalenceClass(class.to_string()));
        }
        let cursor = cursors.entry(class.clone()).or_insert(0);
        let i = pick_index(policy, at, candidates(), count, net, cursor);
        Ok(candidates()
            .nth(i)
            .expect("an index among the candidates")
            .clone())
    }
}

const NOMINAL_BYTES: usize = 64 * 1024;

/// The `Closest` rule of definition (9), for the runtime pick and the
/// cost model alike: the index of the member whose link from the picker
/// (`link`, by the member's peer) carries a nominal 64 KiB transfer
/// soonest — the first such member on a tie, `None` for no members.
pub(crate) fn closest<'m, N: 'm>(
    members: impl IntoIterator<Item = &'m (PeerId, N)>,
    link: impl Fn(PeerId) -> LinkCost,
) -> Option<usize> {
    let cost = |m: &(PeerId, N)| link(m.0).transfer_ms(NOMINAL_BYTES);
    members
        .into_iter()
        .enumerate()
        // `total_cmp`, like the optimizer's beam ordering: a NaN link
        // cost must not make the choice order-dependent.
        .min_by(|(_, a), (_, b)| cost(a).total_cmp(&cost(b)))
        .map(|(i, _)| i)
}

/// The index among the `count` `candidates` that `policy` picks.
fn pick_index<'m, N: 'm, M: Payload>(
    policy: PickPolicy,
    at: PeerId,
    candidates: impl Iterator<Item = &'m (PeerId, N)>,
    count: usize,
    net: &SimTransport<M>,
    cursor: &mut usize,
) -> usize {
    match policy {
        PickPolicy::First => 0,
        PickPolicy::Closest => closest(candidates, |p| net.link(at, p)).unwrap_or(0),
        PickPolicy::Random(seed) => {
            // Derive the choice from the seed, the site and the class size
            // so repeated picks are deterministic but well spread.
            let mut rng = SplitMix64::new(seed ^ ((at.0 as u64) << 32) ^ *cursor as u64);
            *cursor += 1;
            rng.gen_range(0..count)
        }
        PickPolicy::RoundRobin => {
            let i = *cursor % count;
            *cursor += 1;
            i
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_net::link::LinkCost;

    /// a ⇄ b slow, a ⇄ c lan, b ⇄ c wan.
    fn net3() -> SimTransport<String> {
        let mut net: SimTransport<String> = SimTransport::new();
        let a = net.add_peer("a");
        let b = net.add_peer("b");
        let c = net.add_peer("c");
        net.set_link(a, b, LinkCost::slow());
        net.set_link(a, c, LinkCost::lan());
        net.set_link(b, c, LinkCost::wan());
        net
    }

    /// The same two replicas (on b and c) as a document class `cat` and
    /// as a service class `cat`.
    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_doc_replica("cat", PeerId(1), "cat-on-b");
        cat.add_doc_replica("cat", PeerId(2), "cat-on-c");
        cat.add_service_replica("cat", PeerId(1), "cat-on-b");
        cat.add_service_replica("cat", PeerId(2), "cat-on-c");
        cat
    }

    /// A pick's outcome; `None` = empty equivalence class.
    fn shown<N: ClassName>(pick: CoreResult<(PeerId, N)>) -> Option<(PeerId, String)> {
        match pick {
            Ok((p, name)) => Some((p, name.to_string())),
            Err(CoreError::EmptyEquivalenceClass(_)) => None,
            Err(e) => panic!("unexpected pick error: {e}"),
        }
    }

    /// Pick at peer a over the document class and the service class of
    /// that name, which must agree.
    fn pick_both(
        cat: &mut Catalog,
        policy: PickPolicy,
        class: &str,
        net: &SimTransport<String>,
        excluded: &[PeerId],
    ) -> Option<(PeerId, String)> {
        let doc = shown(cat.pick(policy, PeerId(0), &DocName::from(class), net, excluded));
        let svc = shown(cat.pick(policy, PeerId(0), &ServiceName::from(class), net, excluded));
        assert_eq!(doc, svc, "one rule, two kinds");
        doc
    }

    #[test]
    fn one_pick_rule_for_documents_and_services() {
        use PickPolicy::{Closest, First};
        const B: PeerId = PeerId(1);
        const C: PeerId = PeerId(2);
        /// (policy, class, link a→b down?, excluded, expected member)
        type Case = (
            PickPolicy,
            &'static str,
            bool,
            &'static [PeerId],
            Option<PeerId>,
        );
        let cases: [Case; 9] = [
            (First, "cat", false, &[], Some(B)),
            (Closest, "cat", false, &[], Some(C)), // lan to c beats slow to b
            (First, "none", false, &[], None),
            // Blind first pick: an empty `excluded` does not look at
            // reachability — the dead replica is found by timing out.
            (First, "cat", true, &[], Some(B)),
            // A re-pick skips the excluded and the unreachable.
            (Closest, "cat", false, &[C], Some(B)),
            (First, "cat", false, &[B], Some(C)),
            (First, "cat", true, &[PeerId(9)], Some(C)),
            (Closest, "cat", true, &[C], None),
            (First, "none", false, &[B], None),
        ];
        for (policy, class, b_down, excluded, want) in cases {
            let mut net = net3();
            if b_down {
                net.fail_link(PeerId(0), B);
            }
            let got = pick_both(&mut catalog(), policy, class, &net, excluded);
            assert_eq!(
                got.as_ref().map(|(p, _)| *p),
                want,
                "{policy:?} over `{class}`, a→b down: {b_down}, excluded {excluded:?}"
            );
            if let Some((p, name)) = got {
                assert_eq!(name, if p == B { "cat-on-b" } else { "cat-on-c" });
            }
        }
    }

    #[test]
    fn round_robin_cycles_with_a_cursor_per_kind() {
        let net = net3();
        let mut cat = catalog();
        let rr = PickPolicy::RoundRobin;
        let doc = |cat: &mut Catalog| {
            let pick = cat.pick(rr, PeerId(0), &DocName::from("cat"), &net, &[]);
            pick.unwrap().0
        };
        let (p1, p2, p3) = (doc(&mut cat), doc(&mut cat), doc(&mut cat));
        assert_ne!(p1, p2);
        assert_eq!(p1, p3);
        // Three document picks did not move the service class's cursor.
        let svc = cat.pick(rr, PeerId(0), &ServiceName::from("cat"), &net, &[]);
        assert_eq!(svc.unwrap().0, p1, "the service class starts its own cycle");
        assert_eq!(doc(&mut cat), p2, "and the document cycle goes on");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let net = net3();
        let pick = |seed| {
            let mut cat = catalog();
            (0..5)
                .map(|_| pick_both(&mut cat, PickPolicy::Random(seed), "cat", &net, &[]))
                .collect::<Vec<_>>()
        };
        assert_eq!(pick(42), pick(42));
    }

    #[test]
    fn closest_orders_nan_costs_totally() {
        let nan = LinkCost {
            latency_ms: f64::NAN,
            ..LinkCost::lan()
        };
        // Whichever replica is registered first, the one behind the
        // NaN-cost link loses to the one with a real cost.
        for order in [[1, 2], [2, 1]] {
            let mut net = net3();
            net.set_link(PeerId(0), PeerId(1), nan);
            let mut cat = Catalog::new();
            for p in order {
                cat.add_doc_replica("cat", PeerId(p), "cat");
            }
            let pick = cat.pick(
                PickPolicy::Closest,
                PeerId(0),
                &DocName::from("cat"),
                &net,
                &[],
            );
            assert_eq!(pick.unwrap().0, PeerId(2), "registration order {order:?}");
        }
    }

    #[test]
    fn replica_introspection() {
        let cat = catalog();
        assert_eq!(cat.doc_replicas(&"cat".into()).len(), 2);
        assert!(cat.doc_replicas(&"other".into()).is_empty());
        assert_eq!(cat.service_replicas(&"cat".into()).len(), 2);
    }
}
