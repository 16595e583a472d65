//! The network-aware cost model driving the optimizer.
//!
//! §3.3's rewrite rules describe *equivalent* strategies; choosing among
//! them needs an estimate of what each one ships. [`CostModel`] snapshots
//! the cost-relevant facts of a system — link parameters, document sizes
//! and statistics, visible service definitions, replica catalogs — by
//! sharing them, each stamped by the doors that change it, and
//! [`CostModel::estimate`] predicts, without executing, the traffic of
//! `eval@site(expr)`: a mirror of the evaluator in [`crate::engine`] that
//! adds up *estimated* transfers instead of performing them.
//!
//! Result sizes of queries come from `axml-query`'s cardinality estimator
//! over per-document statistics (range and equality predicates priced
//! from the documents' values, constructed results sized from their
//! templates); a query over a value known only by its size falls back to
//! [`DEFAULT_QUERY_RATIO`]. A value's estimate is a function of the value,
//! not of how a plan spells it: the walk hands each value on as a
//! [`View`] that borrows the statistics of the documents it was drawn
//! from, so `outer(pushed(x))` prices as `q(x)`, `eval@p(send(p, e))` as
//! `e`, `d@any` as the replica the runtime picks and a shared argument as
//! the two it replaced (`tests/value_estimates.rs`), and equivalent plans
//! differ only by what they ship. The benchmarks compare *measured*
//! traffic; the model only has to rank candidate plans correctly, and
//! `tests/optimizer_ranking.rs` checks that it does: on the `query_ship`
//! and E8 shapes, the chosen plan measures within 2 % of the fewest bytes
//! and 1 % of the least virtual time among the first 300 equivalent
//! plans, whose estimated and measured times agree in rank (Kendall's τ).

use crate::expr::{Expr, PeerRef, SendDest};
use crate::optimizer::PlanCache;
use crate::peer::PeerState;
use crate::pick::{closest, Members, PickPolicy};
use crate::system::AxmlSystem;
use axml_net::link::LinkCost;
use axml_net::sim::LinkTable;
use axml_query::estimate::{estimate as estimate_query, ForestStats, View};
use axml_query::Query;
use axml_xml::ids::{DocName, PeerId, ServiceName};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Estimated cost of an evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    /// Estimated bytes crossing links (payload + overhead).
    pub bytes: f64,
    /// Estimated messages.
    pub messages: f64,
    /// Estimated total transfer time (sum over messages; the sequential
    /// model of the evaluator).
    pub time_ms: f64,
}

impl Cost {
    /// The zero cost.
    pub fn zero() -> Self {
        Cost::default()
    }

    /// The scalar the optimizer minimizes.
    pub fn scalar(&self) -> f64 {
        self.time_ms
    }

    /// Accumulate another cost into this one.
    pub fn add(&mut self, other: Cost) {
        self.bytes += other.bytes;
        self.messages += other.messages;
        self.time_ms += other.time_ms;
    }

    fn charge(&mut self, link: &LinkCost, payload_bytes: f64, local: bool) {
        if local {
            return;
        }
        let n = axml_net::link::saturating_bytes_f64(payload_bytes);
        self.bytes += link.charged_bytes(n) as f64;
        self.messages += 1.0;
        self.time_ms += link.transfer_ms(n);
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "~{:.0} B / {:.0} msg / {:.2} ms",
            self.bytes, self.messages, self.time_ms
        )
    }
}

/// Outcome of estimating one (sub)expression.
#[derive(Debug, Clone, Copy)]
pub struct EstimatedEval {
    /// Estimated serialized bytes of the forest materializing at the site.
    pub value_bytes: f64,
    /// Estimated traffic to get there.
    pub cost: Cost,
}

/// Default result-size ratio when a query's output cannot be estimated
/// from statistics.
pub const DEFAULT_QUERY_RATIO: f64 = 0.3;

/// What the cost model knows about the documents and services one peer
/// hosts. Collected once per [`PeerState::stamp`] — which every mutable
/// door of Σ|p draws afresh — and shared by `Arc` with every model
/// snapshot taken until the peer changes.
#[derive(Debug, PartialEq)]
pub(crate) struct PeerStats {
    /// The peer's stamp when these were collected: the documents' and
    /// the service table's.
    at: (u64, u64),
    /// Per document; its serialized size is the statistics' `total_bytes`.
    docs: HashMap<DocName, ForestStats>,
    /// The visible definition of each registered service.
    services: HashMap<ServiceName, Query>,
}

impl PeerStats {
    fn collect(peer: &PeerState) -> Self {
        PeerStats {
            at: peer.stamp(),
            docs: peer
                .docs
                .names()
                .zip(peer.docs.iter())
                .map(|(name, d)| {
                    let stats = ForestStats::collect(std::slice::from_ref(d.tree()));
                    (name.clone(), stats)
                })
                .collect(),
            services: peer
                .services()
                .iter()
                .map(|(name, svc)| (name.clone(), svc.query.clone()))
                .collect(),
        }
    }
}

/// Per-peer statistics cache, each entry valid while its peer's stamp is
/// the one it was collected at.
pub(crate) type StatsCache = Mutex<Vec<Option<Arc<PeerStats>>>>;

impl AxmlSystem {
    /// Every peer's document statistics, re-collected only for peers
    /// whose stamp moved since the cached entry was taken.
    fn peer_stats(&self) -> Vec<Arc<PeerStats>> {
        let mut cache = self
            .stats_cache
            .lock()
            .expect("a thread panicked while collecting statistics");
        cache.resize(self.peers.len(), None);
        cache
            .iter_mut()
            .zip(&self.peers)
            .map(|(entry, peer)| match entry {
                Some(stats) if stats.at == peer.stamp() => Arc::clone(stats),
                _ => Arc::clone(entry.insert(Arc::new(PeerStats::collect(peer)))),
            })
            .collect()
    }
}

/// The document statistics of a [`CostModel`] and whose were read. The
/// fields are private to this module, so every read goes through
/// [`Statistics::of`], which notes the peer: the optimizer reuses a plan
/// while the peers whose statistics priced it keep their stamp, and a
/// read the set missed would let a plan outlive the state that priced it.
/// A peer's services are read through [`Statistics::services`], which
/// notes nothing: they are compared by stamp with the model's other facts.
mod statistics {
    use super::PeerStats;
    use axml_query::Query;
    use axml_xml::ids::{PeerId, ServiceName};
    use std::cell::Cell;
    use std::collections::HashMap;
    use std::sync::Arc;

    #[derive(Debug, Clone)]
    pub(super) struct Statistics {
        /// Per peer, shared with the system's cache.
        stats: Vec<Arc<PeerStats>>,
        /// Whose statistics were read since the last `forget_reads`.
        read: Vec<Cell<bool>>,
    }

    impl Statistics {
        pub(super) fn new(stats: Vec<Arc<PeerStats>>) -> Self {
            let read = vec![Cell::new(false); stats.len()];
            Statistics { stats, read }
        }

        /// `at`'s statistics, noting that they were read.
        pub(super) fn of(&self, at: PeerId) -> Option<&PeerStats> {
            let stats = self.stats.get(at.index())?;
            self.read[at.index()].set(true);
            Some(stats)
        }

        /// `at`'s service definitions, noting no read.
        pub(super) fn services(&self, at: PeerId) -> Option<&HashMap<ServiceName, Query>> {
            Some(&self.stats.get(at.index())?.services)
        }

        pub(super) fn forget_reads(&self) {
            for r in &self.read {
                r.set(false);
            }
        }

        pub(super) fn reads(&self) -> Vec<(PeerId, (u64, u64))> {
            self.read
                .iter()
                .zip(&self.stats)
                .enumerate()
                .filter(|(_, (read, _))| read.get())
                .map(|(p, (_, stats))| (PeerId(p as u32), stats.at))
                .collect()
        }

        pub(super) fn reads_hold(&self, reads: &[(PeerId, (u64, u64))]) -> bool {
            reads
                .iter()
                .all(|(p, at)| self.stats.get(p.index()).map(|s| s.at) == Some(*at))
        }
    }
}

/// What a [`CostModel`] knows besides the document statistics, as the
/// stamps it stood at — compared with `==`, never ordered: a peer or a
/// catalog can be assigned an older clone. Equal facts priced the same
/// links, replica classes, services and pick policy.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Facts {
    /// The link table's stamp.
    links: u64,
    /// The catalog's stamp.
    catalog: u64,
    /// Every peer's services stamp, so its length is the peer count.
    services: Vec<u64>,
    pick: PickPolicy,
}

/// A snapshot of the cost-relevant state of an [`AxmlSystem`]. The link
/// table, the catalog's member tables and the per-peer statistics (with
/// the services) are shared with the system, each standing at the stamp
/// the snapshot noted, so taking one costs O(peers) `Arc` clones, not
/// O(data).
///
/// The snapshot also notes whose statistics it was asked for, so that
/// the optimizer can reuse a plan for as long as the peers whose
/// statistics priced it keep their stamp and the other facts (links,
/// catalog, services, pick policy) are equal (DESIGN.md §3.5, "A plan
/// is searched once per state it read").
#[derive(Debug, Clone)]
pub struct CostModel {
    links: Arc<LinkTable>,
    stats: statistics::Statistics,
    doc_replicas: Arc<Members<DocName>>,
    service_replicas: Arc<Members<ServiceName>>,
    /// Everything the model knows besides the statistics, by stamp.
    pub(crate) facts: Facts,
    /// The system's plan cache, handed to the optimizer.
    pub(crate) plans: Arc<PlanCache>,
}

impl CostModel {
    /// Snapshot a system.
    pub fn from_system(sys: &AxmlSystem) -> Self {
        let stats = sys.peer_stats();
        let (doc_replicas, service_replicas, catalog) = sys.catalog.tables();
        CostModel {
            links: Arc::clone(sys.net().links()),
            facts: Facts {
                links: sys.net().links().stamp(),
                catalog,
                services: stats.iter().map(|s| s.at.1).collect(),
                pick: sys.pick_policy(),
            },
            stats: statistics::Statistics::new(stats),
            doc_replicas,
            service_replicas,
            plans: Arc::clone(&sys.plans),
        }
    }

    /// Start a new read set.
    pub(crate) fn forget_reads(&self) {
        self.stats.forget_reads();
    }

    /// The peers whose statistics were read since
    /// [`CostModel::forget_reads`], each with the stamp they were
    /// collected at.
    pub(crate) fn reads(&self) -> Vec<(PeerId, (u64, u64))> {
        self.stats.reads()
    }

    /// Does every peer of `reads` still stand at the stamp noted there?
    pub(crate) fn reads_hold(&self, reads: &[(PeerId, (u64, u64))]) -> bool {
        self.stats.reads_hold(reads)
    }

    /// Number of peers in the snapshot.
    pub fn peer_count(&self) -> usize {
        self.facts.services.len()
    }

    /// Link cost between two peers. A failed (down) link is returned as a
    /// poisoned cost so any plan crossing it is ranked out — the optimizer
    /// routes around partitions (rule (12) right-to-left finds relays).
    pub fn link(&self, a: PeerId, b: PeerId) -> LinkCost {
        if a != b && !self.links.link_up(a, b) {
            return LinkCost {
                latency_ms: 1e12,
                bytes_per_ms: 1e-6,
                per_msg_bytes: 0,
            };
        }
        self.links.link(a, b)
    }

    fn doc_stats(&self, at: PeerId, name: &DocName) -> Option<&ForestStats> {
        self.stats.of(at)?.docs.get(name)
    }

    /// The size of a document, if known.
    pub fn doc_size(&self, at: PeerId, name: &DocName) -> Option<f64> {
        self.doc_stats(at, name).map(|s| s.total_bytes as f64)
    }

    /// The visible definition of a service; `None` only when `at` has no
    /// service of that name (every [`crate::service::Service`] is
    /// declarative).
    pub fn service_query(&self, at: PeerId, name: &ServiceName) -> Option<&Query> {
        self.stats.services(at)?.get(name)
    }

    /// Replicas of a generic document class.
    pub fn doc_replicas(&self, class: &DocName) -> &[(PeerId, DocName)] {
        self.doc_replicas
            .get(class)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Replicas of a generic service class.
    pub fn service_replicas(&self, class: &ServiceName) -> &[(PeerId, ServiceName)] {
        self.service_replicas
            .get(class)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Resolve a generic document reference the way the *runtime* will:
    /// the model mirrors the system's pick policy (definition (9)), so
    /// estimates of `d@any` plans match what evaluation does.
    pub fn resolve_doc(
        &self,
        site: PeerId,
        name: &DocName,
        at: &PeerRef,
    ) -> Option<(PeerId, DocName)> {
        match at {
            PeerRef::At(p) => Some((*p, name.clone())),
            PeerRef::Any => self.resolve_any(site, self.doc_replicas(name)),
        }
    }

    /// The member of a generic class that definition (9) picks for a
    /// requester at `site` under the system's pick policy — for `d@any`
    /// and `s@any` alike.
    fn resolve_any<N: Clone>(&self, site: PeerId, members: &[(PeerId, N)]) -> Option<(PeerId, N)> {
        match self.facts.pick {
            PickPolicy::Closest => closest(members, |p| self.link(site, p)).map(|i| &members[i]),
            // First/Random/RoundRobin: the first member is the
            // deterministic representative (exact for First, a
            // representative sample otherwise).
            _ => members.first(),
        }
        .cloned()
    }

    /// Estimate `eval@site(expr)`.
    pub fn estimate(&self, site: PeerId, expr: &Expr) -> EstimatedEval {
        let mut cost = Cost::zero();
        let value_bytes = self.est(site, None, expr, &mut cost).bytes;
        // Infinities are legal (unreachable links price a plan out), but a
        // NaN would poison every comparison downstream of the beam search.
        debug_assert!(
            !cost.scalar().is_nan() && !value_bytes.is_nan(),
            "cost model produced NaN for {expr:?} at {site:?}"
        );
        EstimatedEval { value_bytes, cost }
    }

    /// Convenience: the scalar cost of a candidate plan.
    pub fn scalar_cost(&self, site: PeerId, expr: &Expr) -> f64 {
        self.estimate(site, expr).cost.scalar()
    }

    /// The walk behind [`CostModel::estimate`]: the traffic of
    /// `eval@site(expr)` into `cost`, and the value it produces at `site`
    /// as a [`View`] — a function of the value, not of how the plan spells
    /// it. A wrapper that only moves a value (`eval@p(send(site, e))`)
    /// hands on its view; a query reads its arguments' views, which
    /// borrow the documents' statistics.
    ///
    /// `defs` is where the query definitions and literal trees that
    /// `expr` carries inline live: `None` for where each says it does,
    /// `Some(p)` once an enclosing `EvalAt` has shipped them to `p` — what
    /// the engine does to the shipped copy with `relocate_query_defs`,
    /// priced here without a copy. Charges are added in evaluation order,
    /// the order the relocating walk added them in, so every `Cost` keeps
    /// its bits (float addition does not reassociate).
    fn est<'m>(
        &'m self,
        site: PeerId,
        defs: Option<PeerId>,
        expr: &Expr,
        cost: &mut Cost,
    ) -> View<'m> {
        match expr {
            Expr::Tree { tree, at } => {
                let at = defs.unwrap_or(*at);
                let size = tree.serialized_size() as f64;
                if at != site {
                    // The evaluator fetches literal trees by reference
                    // (small request), then ships the tree back.
                    cost.charge(&self.link(site, at), 48.0, false);
                    cost.charge(&self.link(at, site), size, false);
                }
                // known by its size: no statistics are kept for literals
                View::sized(size)
            }
            Expr::Doc { name, at } => {
                let Some((home, concrete)) = self.resolve_doc(site, name, at) else {
                    return View::empty();
                };
                let value = self
                    .doc_stats(home, &concrete)
                    .map_or_else(|| View::sized(1024.0), View::of);
                if home != site {
                    cost.charge(&self.link(site, home), expr.wire_size() as f64, false);
                    cost.charge(&self.link(home, site), value.bytes, false);
                }
                value
            }
            Expr::Apply { query, args } => {
                let def_at = defs.unwrap_or(query.def_at);
                if def_at != site {
                    cost.charge(
                        &self.link(def_at, site),
                        query.query.wire_size() as f64,
                        false,
                    );
                }
                let args: Vec<View<'m>> =
                    args.iter().map(|a| self.est(site, defs, a, cost)).collect();
                self.query_value(site, &query.query, &args)
            }
            Expr::Send { dest, payload } => {
                let v = self.est(site, defs, payload, cost).bytes;
                match dest {
                    SendDest::Peer(q) => {
                        cost.charge(&self.link(site, *q), v, *q == site);
                    }
                    SendDest::Nodes(addrs) => {
                        for a in addrs {
                            cost.charge(&self.link(site, a.peer), v, a.peer == site);
                        }
                    }
                    SendDest::NewDoc { peer, .. } => {
                        cost.charge(&self.link(site, *peer), v, *peer == site);
                    }
                }
                View::empty()
            }
            Expr::Sc {
                provider,
                service,
                params,
                forward,
            } => {
                let (prov, concrete) = match provider {
                    PeerRef::At(p) => (*p, service.clone()),
                    PeerRef::Any => match self.resolve_any(site, self.service_replicas(service)) {
                        Some(m) => m,
                        None => return View::empty(),
                    },
                };
                let params: Vec<View<'m>> = params
                    .iter()
                    .map(|p| self.est(site, defs, p, cost))
                    .collect();
                if prov != site {
                    let total: f64 = params.iter().map(|p| p.bytes).sum();
                    cost.charge(&self.link(site, prov), total + 32.0, false);
                }
                let result = match self.service_query(prov, &concrete) {
                    Some(q) => self.query_value(prov, q, &params),
                    None => opaque_result(&params),
                };
                if forward.is_empty() {
                    if prov != site {
                        cost.charge(&self.link(prov, site), result.bytes, false);
                    }
                    result
                } else {
                    for a in forward {
                        cost.charge(&self.link(prov, a.peer), result.bytes, a.peer == prov);
                    }
                    View::empty()
                }
            }
            Expr::EvalAt { peer, expr: inner } => {
                // Crossing to another peer ships the body as it stands
                // (under the `defs` it arrived with); from there on what
                // it carries lives at `peer`.
                let defs = if *peer != site {
                    let shipped = inner.shipped_size(defs) as f64;
                    cost.charge(&self.link(site, *peer), shipped, false);
                    Some(*peer)
                } else {
                    defs
                };
                if let Expr::Send {
                    dest: SendDest::Peer(back),
                    payload,
                } = &**inner
                {
                    if back == &site {
                        let v = self.est(*peer, defs, payload, cost);
                        cost.charge(&self.link(*peer, site), v.bytes, *peer == site);
                        return v;
                    }
                }
                let _ = self.est(*peer, defs, inner, cost);
                View::empty()
            }
            Expr::Deploy { to, query, .. } => {
                let def_at = defs.unwrap_or(query.def_at);
                if def_at != *to {
                    cost.charge(
                        &self.link(def_at, *to),
                        query.query.wire_size() as f64,
                        false,
                    );
                }
                View::empty()
            }
            Expr::Seq(es) => {
                let mut last = View::empty();
                for e in es {
                    last = self.est(site, defs, e, cost);
                }
                last
            }
        }
    }

    /// The value of `query` over `args` evaluated at `site`, whose
    /// `doc("…")` sources read `site`'s documents. A query over an
    /// argument known only by its size falls back to
    /// [`DEFAULT_QUERY_RATIO`]. A composition `q1(q2(…))` is an `Apply`
    /// over an `Apply`, priced one query at a time.
    fn query_value<'m>(&'m self, site: PeerId, query: &Query, args: &[View<'m>]) -> View<'m> {
        estimate_query(query.plan(), args, &|name: &DocName| {
            self.doc_stats(site, name)
        })
        .unwrap_or_else(|| opaque_result(args))
    }
}

/// What a query or service answers over `args` when their statistics
/// cannot say: a fixed share of what it reads.
fn opaque_result<'m>(args: &[View<'m>]) -> View<'m> {
    let read: f64 = args.iter().map(|a| a.bytes).sum();
    View::sized(DEFAULT_QUERY_RATIO * read + 64.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LocatedQuery;
    use axml_net::link::LinkCost;
    use axml_xml::tree::Tree;

    fn system() -> (AxmlSystem, PeerId, PeerId) {
        let mut sys = AxmlSystem::new();
        let a = sys.add_peer("a");
        let b = sys.add_peer("b");
        sys.net_mut().set_link(a, b, LinkCost::wan());
        let mut xml = String::from("<catalog>");
        for i in 0..100 {
            xml.push_str(&format!(
                r#"<pkg name="p{i}"><size>{}</size></pkg>"#,
                i * 100
            ));
        }
        xml.push_str("</catalog>");
        sys.install_doc(b, "catalog", Tree::parse(&xml).unwrap())
            .unwrap();
        (sys, a, b)
    }

    #[test]
    fn local_doc_is_free() {
        let (sys, _a, b) = system();
        let m = CostModel::from_system(&sys);
        let e = m.estimate(
            b,
            &Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(b),
            },
        );
        assert_eq!(e.cost.messages, 0.0);
        assert!(e.value_bytes > 1000.0);
    }

    #[test]
    fn remote_doc_costs_its_size() {
        let (sys, a, b) = system();
        let m = CostModel::from_system(&sys);
        let size = m.doc_size(b, &"catalog".into()).unwrap();
        let e = m.estimate(
            a,
            &Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(b),
            },
        );
        assert!(e.cost.bytes >= size);
        assert_eq!(e.cost.messages, 2.0, "request + data");
        assert!(e.cost.time_ms > 0.0);
    }

    #[test]
    fn estimator_ranks_delegation_correctly() {
        let (sys, a, b) = system();
        let m = CostModel::from_system(&sys);
        let q = Query::parse(
            "sel",
            r#"for $p in $0//pkg where $p/size/text() > 9000 return {$p/@name}"#,
        )
        .unwrap();
        let naive = Expr::Apply {
            query: LocatedQuery::new(q.clone(), a),
            args: vec![Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(b),
            }],
        };
        let delegated = Expr::EvalAt {
            peer: b,
            expr: Box::new(Expr::Send {
                dest: SendDest::Peer(a),
                payload: Box::new(Expr::Apply {
                    query: LocatedQuery::new(q, a),
                    args: vec![Expr::Doc {
                        name: "catalog".into(),
                        at: PeerRef::At(b),
                    }],
                }),
            }),
        };
        let cn = m.scalar_cost(a, &naive);
        let cd = m.scalar_cost(a, &delegated);
        assert!(
            cd < cn,
            "delegation should be estimated cheaper: {cd} vs {cn}"
        );
    }

    #[test]
    fn estimate_tracks_measured_traffic_shape() {
        // The estimator need not be exact, but for a plain remote fetch it
        // should be within a small factor of the measured bytes.
        let (mut sys, a, b) = system();
        let e = Expr::Doc {
            name: "catalog".into(),
            at: PeerRef::At(b),
        };
        let m = CostModel::from_system(&sys);
        let est = m.estimate(a, &e);
        sys.eval(a, &e).unwrap();
        let measured = sys.stats().total_bytes() as f64;
        assert!(
            est.cost.bytes > 0.5 * measured && est.cost.bytes < 2.0 * measured,
            "estimated {} vs measured {}",
            est.cost.bytes,
            measured
        );
    }

    #[test]
    fn generic_doc_resolves_to_cheapest() {
        let mut sys = AxmlSystem::new();
        let a = sys.add_peer("a");
        let b = sys.add_peer("b");
        let c = sys.add_peer("c");
        sys.net_mut().set_link(a, b, LinkCost::slow());
        sys.net_mut().set_link(a, c, LinkCost::lan());
        sys.install_replica(b, "cat", "cat-b", Tree::parse("<c/>").unwrap())
            .unwrap();
        sys.install_replica(c, "cat", "cat-c", Tree::parse("<c/>").unwrap())
            .unwrap();
        let m = CostModel::from_system(&sys);
        let (home, _) = m.resolve_doc(a, &"cat".into(), &PeerRef::Any).unwrap();
        assert_eq!(home, c);
        assert!(m.resolve_doc(a, &"none".into(), &PeerRef::Any).is_none());
    }

    /// `s@any` is priced at the replica definition (9) will pick under
    /// the system's policy, not at the closest one whatever the policy.
    #[test]
    fn generic_service_follows_the_pick_policy() {
        let mut sys = AxmlSystem::new();
        let a = sys.add_peer("a");
        let far = sys.add_peer("far");
        let near = sys.add_peer("near");
        sys.net_mut().set_link(a, far, LinkCost::slow());
        sys.net_mut().set_link(a, near, LinkCost::lan());
        for (p, name) in [(far, "scan-far"), (near, "scan-near")] {
            sys.register_declarative_service(p, name, "for $x in $0//pkg return {$x}")
                .unwrap();
            sys.catalog_mut().add_service_replica("scan", p, name);
        }
        let call = |provider, service: &str| Expr::Sc {
            provider,
            service: service.into(),
            params: vec![Expr::Tree {
                tree: Tree::parse("<c><pkg/></c>").unwrap(),
                at: a,
            }],
            forward: vec![],
        };
        let any = call(PeerRef::Any, "scan");
        for (policy, picked) in [
            (PickPolicy::First, call(PeerRef::At(far), "scan-far")),
            (PickPolicy::RoundRobin, call(PeerRef::At(far), "scan-far")),
            (PickPolicy::Closest, call(PeerRef::At(near), "scan-near")),
        ] {
            sys.set_pick_policy(policy);
            let m = CostModel::from_system(&sys);
            assert_eq!(
                m.estimate(a, &any).cost,
                m.estimate(a, &picked).cost,
                "{policy:?}"
            );
        }
        // A NaN link sorts after every finite one (total order) instead of
        // comparing "equal" to whatever it meets: the finite replica wins
        // wherever the poisoned one sits in the class.
        sys.net_mut().set_link(
            a,
            far,
            LinkCost {
                latency_ms: f64::NAN,
                bytes_per_ms: 1.0,
                per_msg_bytes: 0,
            },
        );
        let m = CostModel::from_system(&sys);
        let scan = m.service_replicas(&"scan".into());
        assert_eq!(m.resolve_any(a, scan).unwrap().0, near);
        let reversed: Vec<_> = scan.iter().rev().cloned().collect();
        assert_eq!(m.resolve_any(a, &reversed).unwrap().0, near);
    }

    /// Every mutation path of Σ invalidates exactly through the peer's
    /// stamp: after each one the (warm) cached model equals statistics
    /// collected from scratch.
    #[test]
    fn cached_statistics_follow_every_mutation_path() {
        fn assert_fresh(sys: &AxmlSystem, after: &str) {
            let model = CostModel::from_system(sys);
            // and the next snapshot shares every peer's statistics
            let again = CostModel::from_system(sys);
            for (p, peer) in sys.peers.iter().enumerate() {
                let p = PeerId(p as u32);
                let cached = model.stats.of(p).unwrap();
                assert_eq!(*cached, PeerStats::collect(peer), "stale after {after}");
                assert!(std::ptr::eq(cached, again.stats.of(p).unwrap()));
            }
        }
        let (mut sys, a, b) = system();
        let root = |sys: &AxmlSystem, at: PeerId, doc: &str| {
            let t = sys.peer(at).docs.get(&doc.into()).unwrap().tree();
            axml_xml::ids::NodeAddr::new(at, doc, t.root())
        };
        let item =
            |v: &str| Tree::parse(&format!(r#"<pkg name="{v}"><size>7</size></pkg>"#)).unwrap();
        assert_fresh(&sys, "construction");
        sys.install_doc(a, "inbox", Tree::parse("<inbox/>").unwrap())
            .unwrap();
        assert_fresh(&sys, "install_doc");
        sys.install_replica(a, "cat", "cat-a", item("replica"))
            .unwrap();
        assert_fresh(&sys, "install_replica");
        let lit = |at| Expr::Tree {
            tree: item("sent"),
            at,
        };
        for (dest, what) in [
            (
                SendDest::Nodes(vec![root(&sys, a, "inbox")]),
                "send to nodes",
            ),
            (
                SendDest::NewDoc {
                    peer: a,
                    name: "fresh".into(),
                },
                "send to a new document",
            ),
        ] {
            sys.eval(
                b,
                &Expr::Send {
                    dest,
                    payload: Box::new(lit(b)),
                },
            )
            .unwrap();
            assert_fresh(&sys, what);
        }
        // a continuous call, a lazy call, and the feeds that drive them
        sys.register_declarative_service(b, "pkgs", r#"doc("catalog")/pkg"#)
            .unwrap();
        for (doc, mode) in [("live", "immediate"), ("lazy", "lazy")] {
            let xml = format!(
                r#"<d><sc mode="{mode}"><peer>p{}</peer><service>pkgs</service></sc></d>"#,
                b.0
            );
            sys.install_doc(a, doc, Tree::parse(&xml).unwrap()).unwrap();
        }
        let subs = sys.activate_document(a, &"live".into()).unwrap();
        assert_fresh(&sys, "activate_document");
        sys.feed(b, "catalog", item("fed")).unwrap();
        assert_fresh(&sys, "feed");
        // a feed that changes nothing leaves the warm statistics shared
        let warm = CostModel::from_system(&sys);
        assert!(sys.feed(b, "no-such-doc", item("lost")).is_err());
        let still = CostModel::from_system(&sys);
        assert!(std::ptr::eq(
            warm.stats.of(b).unwrap(),
            still.stats.of(b).unwrap()
        ));
        let q = Query::parse("all", "$0/*").unwrap();
        let (_, activated) = sys.query_document(a, &"lazy".into(), &q).unwrap();
        assert_eq!(activated, 1);
        assert_fresh(&sys, "lazy materialization");
        assert!(sys.unsubscribe(subs[0]));
        sys.feed(b, "catalog", item("unheard")).unwrap();
        assert_fresh(&sys, "unsubscribe + feed");
        let older = sys.peer(a).docs.clone();
        let inbox = sys.peer_mut(a).docs.require_mut(&"inbox".into()).unwrap();
        let r = inbox.tree().root();
        inbox.tree_mut().add_text_element(r, "note", "by hand");
        assert_fresh(&sys, "peer_mut require_mut");
        let inbox = sys.peer_mut(a).docs.get_mut(&"inbox".into()).unwrap();
        let r = inbox.tree().root();
        inbox.tree_mut().add_text_element(r, "note", "again");
        assert_fresh(&sys, "peer_mut get_mut");
        let docs = &mut sys.peer_mut(a).docs;
        docs.insert(axml_xml::store::Document::new("extra", item("extra")))
            .unwrap();
        assert_fresh(&sys, "peer_mut insert");
        let docs = &mut sys.peer_mut(a).docs;
        docs.insert_or_replace(axml_xml::store::Document::new("extra", item("replaced")));
        assert_fresh(&sys, "peer_mut insert_or_replace");
        sys.peer_mut(a).docs.remove(&"inbox".into()).unwrap();
        assert_fresh(&sys, "peer_mut remove");
        sys.peer_mut(a).docs = older;
        assert_fresh(&sys, "assigning an older store");
    }

    #[test]
    fn cost_display_and_scalar() {
        let c = Cost {
            bytes: 100.0,
            messages: 2.0,
            time_ms: 5.5,
        };
        assert_eq!(c.scalar(), 5.5);
        assert!(c.to_string().contains("100 B"));
        assert_eq!(Cost::zero().scalar(), 0.0);
    }
}
