//! The AXML system: peers + network + catalog — the paper's state Σ.
//!
//! An [`AxmlSystem`] owns the network — the deterministic
//! [`SimTransport`] model, with an optional [`Transport`] wire attached
//! under it — one [`PeerState`] per peer, and the generic-reference
//! [`Catalog`].
//! Evaluation of expressions (definitions (1)–(9)) is decomposed into
//! continuation tasks by the message-driven engine in [`crate::engine`];
//! continuous service machinery in [`crate::continuous`]. Both drive
//! every cross-peer byte through the engine's wire path so the
//! statistics measure real traffic.

use crate::engine::Wire;
use crate::error::{CoreError, CoreResult};
use crate::peer::{PeerSnapshot, PeerState};
use crate::pick::{Catalog, PickPolicy};
use crate::retry::RetryPolicy;
use crate::service::Service;
use axml_net::link::Topology;
use axml_net::sim::SimTransport;
use axml_net::transport::Transport;
use axml_net::NetStats;
use axml_obs::{EvalMetrics, Obs, RunReport, TraceSink};
use axml_query::Query;
use axml_xml::ids::{DocName, PeerId, ServiceName};
use axml_xml::store::Document;
use axml_xml::tree::Tree;
use std::sync::Arc;

/// Selects nothing: every session runs the engine's one loop. Kept so
/// callers that still name a driver compile; it goes with ROADMAP item
/// 2(b).
#[derive(Debug, Clone, Copy, Default)]
pub enum DriverKind {
    /// The one loop.
    #[default]
    Sequential,
    /// The one loop as well.
    Parallel {
        /// Ignored.
        threads: usize,
    },
}

/// Default seed for the engine's tie-breaking PRNG (override with
/// [`AxmlSystem::set_engine_seed`] or the builder's `seed` knob).
pub(crate) const DEFAULT_ENGINE_SEED: u64 = 0xA001_5EED_0815_4A2F;

/// A complete AXML deployment over the network model (purely simulated
/// by default; also socket-shipped via [`AxmlSystem::with_transport`]).
pub struct AxmlSystem {
    pub(crate) net: SimTransport<Wire>,
    pub(crate) peers: Vec<PeerState>,
    pub(crate) catalog: Catalog,
    pub(crate) pick_policy: PickPolicy,
    pub(crate) next_call: u64,
    /// The continuous engine's state (see [`crate::continuous`]).
    pub(crate) subs: crate::continuous::SubscriptionTable,
    pub(crate) obs: Obs,
    pub(crate) engine_seed: u64,
    pub(crate) sessions: u64,
    /// The cost model's document statistics, valid per peer while its
    /// [`PeerState::stamp`] stands (see [`crate::cost`]).
    pub(crate) stats_cache: crate::cost::StatsCache,
    /// Chosen plans, valid while what their search read stands (see
    /// [`crate::optimizer`]).
    pub(crate) plans: Arc<crate::optimizer::PlanCache>,
    pub(crate) retry: RetryPolicy,
    pub(crate) failover: bool,
}

impl AxmlSystem {
    /// A system whose accepted cross-peer messages also travel over
    /// `wire` (e.g. a socket-backed one); the engine never learns
    /// whether one is attached.
    pub fn with_transport(wire: Box<dyn Transport<Wire> + Send>) -> Self {
        Self::from_net(SimTransport::over(wire))
    }

    /// A system over `net`; peers it already has get fresh
    /// [`PeerState`]s.
    fn from_net(net: SimTransport<Wire>) -> Self {
        let peers: Vec<PeerState> = (0..net.peer_count()).map(|_| PeerState::new()).collect();
        AxmlSystem {
            net,
            peers,
            catalog: Catalog::new(),
            pick_policy: PickPolicy::Closest,
            next_call: 0,
            subs: Default::default(),
            obs: Obs::new(),
            engine_seed: DEFAULT_ENGINE_SEED,
            sessions: 0,
            stats_cache: Default::default(),
            plans: Default::default(),
            retry: RetryPolicy::none(),
            failover: false,
        }
    }

    /// A system over a standard topology.
    pub fn with_topology(topology: &Topology) -> Self {
        Self::from_net(SimTransport::with_topology(topology))
    }

    /// A fresh empty system; add peers with [`AxmlSystem::add_peer`].
    pub fn new() -> Self {
        Self::from_net(SimTransport::new())
    }

    /// Register a new peer.
    pub fn add_peer(&mut self, name: impl Into<String>) -> PeerId {
        let id = self.net.add_peer(name);
        self.peers.push(PeerState::new());
        id
    }

    /// Number of peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Immutable access to a peer's state.
    pub fn peer(&self, p: PeerId) -> &PeerState {
        &self.peers[p.index()]
    }

    /// Mutable access to a peer's state. Whatever it changes moves the
    /// peer's [`PeerState::stamp`] — the documents' doors and
    /// `register_service` draw it — so every cache of a function of Σ|p
    /// (statistics, plans, kept answers) sees the change. It forgets the
    /// peer's kept service answers, which may be views of the documents
    /// about to be written.
    pub fn peer_mut(&mut self, p: PeerId) -> &mut PeerState {
        let state = &mut self.peers[p.index()];
        state.calls.forget();
        state
    }

    /// The network (for link configuration, fault plans, clock control).
    pub fn net_mut(&mut self) -> &mut SimTransport<Wire> {
        &mut self.net
    }

    /// The network, read-only.
    pub fn net(&self) -> &SimTransport<Wire> {
        &self.net
    }

    /// `"sim"`, or the label of the wire under this system's network
    /// (`"socket"`).
    pub fn transport_backend(&self) -> &'static str {
        self.net.backend()
    }

    /// Selects nothing: the network has one scheduler (see
    /// [`axml_net::wheel::SchedulerKind`]). It goes with ROADMAP item
    /// 2(b).
    pub fn set_scheduler(&mut self, _kind: axml_net::wheel::SchedulerKind) {}

    /// Selects nothing: every session runs the one loop (see
    /// [`DriverKind`]). It goes with ROADMAP item 2(b).
    pub fn set_driver(&mut self, _driver: DriverKind) {}

    /// Set the engine's deterministic tie-breaking seed. Sessions derive
    /// their PRNG from this seed plus a session counter, so the same
    /// seed over the same workload reproduces traces byte-for-byte.
    pub fn set_engine_seed(&mut self, seed: u64) {
        self.engine_seed = seed;
    }

    /// The catalog of generic references.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// The catalog, read-only.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Install a document on a peer.
    pub fn install_doc(
        &mut self,
        at: PeerId,
        name: impl Into<DocName>,
        tree: Tree,
    ) -> CoreResult<()> {
        self.check_peer(at)?;
        self.peers[at.index()].install_doc(Document::new(name, tree))
    }

    /// Install a document and register it in a generic equivalence class.
    pub fn install_replica(
        &mut self,
        at: PeerId,
        class: impl Into<DocName>,
        concrete: impl Into<DocName>,
        tree: Tree,
    ) -> CoreResult<()> {
        let class = class.into();
        let concrete = concrete.into();
        self.install_doc(at, concrete.clone(), tree)?;
        self.catalog.add_doc_replica(class, at, concrete);
        Ok(())
    }

    /// Register a declarative service on a peer.
    pub fn register_service(&mut self, at: PeerId, service: Service) -> CoreResult<()> {
        self.check_peer(at)?;
        self.peers[at.index()].register_service(service);
        Ok(())
    }

    /// Shorthand: register a continuous declarative service from source.
    pub fn register_declarative_service(
        &mut self,
        at: PeerId,
        name: impl Into<ServiceName>,
        query_src: &str,
    ) -> CoreResult<()> {
        let name = name.into();
        let q = Query::parse(name.as_str(), query_src)?;
        self.register_service(at, Service::declarative(name, q))
    }

    /// Transfer statistics so far.
    pub fn stats(&self) -> &NetStats {
        self.net.stats()
    }

    /// Zero the statistics **and** the evaluation metrics (keeps state Σ).
    /// Resetting both together preserves the metrics↔stats reconciliation
    /// invariant checked by [`axml_obs::EvalMetrics::reconciles_with`].
    pub fn reset_stats(&mut self) {
        self.net.reset_stats();
        self.obs.metrics.reset();
    }

    /// The observability handle (metrics + optional trace sink).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Mutable observability handle.
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    /// The evaluation metrics so far.
    pub fn metrics(&self) -> &EvalMetrics {
        &self.obs.metrics
    }

    /// Attach a trace sink; every evaluation step streams
    /// [`axml_obs::TraceEvent`]s into it until detached.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.obs.set_sink(sink);
    }

    /// Detach the trace sink (tracing reverts to zero-cost). The sink
    /// is flushed before it is dropped, so buffered file sinks lose no
    /// tail events on detach. The first flush that failed since the last
    /// detach — this one, or one at a session's quiescence point; a full
    /// disk, a socket consumer that left — is returned, even when later
    /// flushes succeeded (see [`axml_obs::Obs::clear_sink`]).
    pub fn clear_trace_sink(&mut self) -> std::io::Result<()> {
        self.obs.clear_sink()
    }

    /// Flush the attached trace sink, if any (see
    /// [`axml_obs::TraceSink::flush`]). The engine also flushes at
    /// every session quiescence point.
    pub fn flush_trace(&mut self) -> std::io::Result<()> {
        self.obs.flush()
    }

    /// Snapshot metrics + network stats as a [`RunReport`]. The
    /// scheduler ledger is attached automatically: its push/pop/clear
    /// counters are a function of the message sequence alone, so they
    /// stay byte-identical across runs of one seed (memory snapshots,
    /// which are not, must be attached explicitly with
    /// `RunReport::with_mem`).
    pub fn run_report(&self, title: impl Into<String>) -> RunReport {
        RunReport::new(title, &self.obs.metrics, self.net.stats())
            .with_sched(self.net.sched_stats())
    }

    /// Simulated time (ms).
    pub fn now_ms(&self) -> f64 {
        self.net.now_ms()
    }

    /// The full state Σ as canonical snapshots (one per peer) — used to
    /// verify the §3.3 equivalence `eval@p1(e1)(Σ) = eval@p2(e2)(Σ)`.
    pub fn snapshot(&self) -> Vec<PeerSnapshot> {
        self.peers.iter().map(PeerState::snapshot).collect()
    }

    pub(crate) fn check_peer(&self, p: PeerId) -> CoreResult<()> {
        if p.index() < self.peers.len() {
            Ok(())
        } else {
            Err(CoreError::UnknownPeer(p))
        }
    }

    /// Fresh correlation id.
    pub(crate) fn fresh_call_id(&mut self) -> u64 {
        let id = self.next_call;
        self.next_call += 1;
        id
    }
}

impl Default for AxmlSystem {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_net::link::LinkCost;

    #[test]
    fn build_system() {
        let mut sys = AxmlSystem::new();
        let a = sys.add_peer("alice");
        let b = sys.add_peer("bob");
        assert_eq!(sys.peer_count(), 2);
        sys.net_mut().set_link(a, b, LinkCost::wan());
        sys.install_doc(a, "d", Tree::parse("<x/>").unwrap())
            .unwrap();
        assert!(sys.peer(a).docs.contains(&"d".into()));
        assert!(sys
            .install_doc(a, "d", Tree::parse("<y/>").unwrap())
            .is_err());
        assert!(sys
            .install_doc(PeerId(9), "e", Tree::parse("<x/>").unwrap())
            .is_err());
    }

    #[test]
    fn topology_constructor() {
        let sys = AxmlSystem::with_topology(&Topology::Uniform {
            n: 5,
            cost: LinkCost::wan(),
        });
        assert_eq!(sys.peer_count(), 5);
    }

    #[test]
    fn replica_installation() {
        let mut sys = AxmlSystem::new();
        let a = sys.add_peer("a");
        let b = sys.add_peer("b");
        sys.install_replica(a, "cat", "cat-a", Tree::parse("<c/>").unwrap())
            .unwrap();
        sys.install_replica(b, "cat", "cat-b", Tree::parse("<c/>").unwrap())
            .unwrap();
        assert_eq!(sys.catalog().doc_replicas(&"cat".into()).len(), 2);
    }

    #[test]
    fn service_registration() {
        let mut sys = AxmlSystem::new();
        let a = sys.add_peer("a");
        sys.register_declarative_service(a, "scan", "for $x in $0//pkg return {$x}")
            .unwrap();
        assert!(sys.peer(a).services().contains_key(&"scan".into()));
        assert!(sys
            .register_declarative_service(PeerId(3), "x", "$0")
            .is_err());
    }

    #[test]
    fn wire_sends_account_bytes() {
        use crate::expr::{Expr, SendDest};
        let mut sys = AxmlSystem::new();
        let a = sys.add_peer("a");
        let b = sys.add_peer("b");
        sys.net_mut().set_link(a, b, LinkCost::wan());
        let payload = Tree::parse(&format!("<x>{}</x>", "y".repeat(100))).unwrap();
        sys.eval(
            a,
            &Expr::Send {
                dest: SendDest::Peer(b),
                payload: Box::new(Expr::Tree {
                    tree: payload,
                    at: a,
                }),
            },
        )
        .unwrap();
        assert_eq!(sys.stats().total_messages(), 1);
        assert!(sys.stats().total_bytes() >= 100);
        assert!(sys.now_ms() > 0.0);
        sys.reset_stats();
        assert_eq!(sys.stats().total_messages(), 0);
    }

    #[test]
    fn snapshot_captures_sigma() {
        let mut sys = AxmlSystem::new();
        let a = sys.add_peer("a");
        let _b = sys.add_peer("b");
        let before = sys.snapshot();
        sys.install_doc(a, "d", Tree::parse("<x/>").unwrap())
            .unwrap();
        let after = sys.snapshot();
        assert_ne!(before, after);
        assert_eq!(after.len(), 2);
    }

    /// A trace sink whose first flush fails: the evaluations answer as
    /// they would untraced, and detaching returns the failure although
    /// the sink's later flushes succeeded.
    #[test]
    fn a_failed_quiescence_flush_is_returned_on_detach() {
        use crate::expr::{Expr, PeerRef};
        use axml_obs::TraceEvent;
        struct FailsOnce(bool);
        impl TraceSink for FailsOnce {
            fn record(&mut self, _: TraceEvent) {}
            fn flush(&mut self) -> std::io::Result<()> {
                if std::mem::replace(&mut self.0, true) {
                    Ok(())
                } else {
                    Err(std::io::ErrorKind::BrokenPipe.into())
                }
            }
        }
        let run = |traced: bool| {
            let mut sys = AxmlSystem::new();
            let a = sys.add_peer("a");
            let b = sys.add_peer("b");
            sys.net_mut().set_link(a, b, LinkCost::wan());
            sys.install_doc(b, "d", Tree::parse("<x><y/><y/></x>").unwrap())
                .unwrap();
            if traced {
                sys.set_trace_sink(Box::new(FailsOnce(false)));
            }
            let fetch = Expr::Doc {
                name: "d".into(),
                at: PeerRef::At(b),
            };
            let answers: Vec<Vec<String>> = (0..2)
                .map(|_| {
                    let out = sys.eval(a, &fetch).unwrap();
                    out.iter().map(Tree::serialize).collect()
                })
                .collect();
            (answers, sys.clear_trace_sink())
        };
        let (plain, detached) = run(false);
        assert!(detached.is_ok());
        let (traced, detached) = run(true);
        assert_eq!(traced, plain);
        assert_eq!(detached.unwrap_err().kind(), std::io::ErrorKind::BrokenPipe);
    }
}
