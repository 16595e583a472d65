//! The pluggable [`Transport`] trait: everything the evaluation engine
//! is allowed to know about the network.
//!
//! `axml-core` drives peers exclusively through this object-safe
//! surface — connect ([`Transport::add_peer`]), framed send/recv
//! ([`Transport::send_attempt`] / [`Transport::recv_from`]),
//! deterministic time ([`Transport::now_ms`] / [`Transport::advance`])
//! and per-link statistics ([`Transport::stats`]) — so the engine is
//! *transport-blind*: the same session runs unchanged over the
//! discrete-event reference backend
//! ([`SimTransport`]) or the real
//! multi-process loopback backend
//! ([`SocketTransport`](crate::socket::SocketTransport)).
//!
//! # Contract
//!
//! Implementations must uphold, in the same way the simulator does:
//!
//! * **Framing** — one `send_attempt` is one message: it is delivered
//!   whole by a single `recv_from` or not at all. No coalescing, no
//!   fragmentation visible to the caller.
//! * **Per-link FIFO** — two messages accepted on the same directed
//!   link arrive in send order.
//! * **Deterministic time** — `now_ms` is *virtual* time derived from
//!   the [`LinkCost`] model, never the wall clock; two runs with the
//!   same seed and send sequence observe identical timestamps.
//! * **Error mapping** — failures surface as typed
//!   [`NetError`]s: `LinkDown`/`PeerDown`/`Dropped`
//!   for modelled (deterministic, retryable) faults, `Wire` for real
//!   backend breakage outside the model.
//! * **Statistics** — every accepted cross-peer message is charged to
//!   [`NetStats`] at send time with the link's
//!   [`charged_bytes`](LinkCost::charged_bytes); local (`from == to`)
//!   deliveries are free and uncounted.
//!
//! `TRANSPORT.md` at the repository root is the long-form version of
//! this contract, with a sim-vs-socket comparison table.

use crate::error::{NetError, NetResult};
use crate::link::{LinkCost, Topology};
use crate::sim::{FaultPlan, SimTransport};
use crate::stats::NetStats;
use crate::wheel::{SchedStats, SchedulerKind};
use crate::Payload;
use axml_xml::ids::PeerId;

/// A message that can be serialized into the payload of an AXTR wire
/// frame (see [`crate::frame`]).
///
/// The socket backend ships these bytes across the process boundary
/// and verifies the endpoint's acknowledgement digest against them.
/// The encoding must be **deterministic** — equal messages must encode
/// to equal bytes, or the differential oracle's digest reconciliation
/// would flap.
pub trait FramedPayload {
    /// Append this message's frame-payload bytes to `out` — the frame
    /// under construction, so the message is rendered once, in place.
    /// An implementation that knows its length reserves it first.
    fn frame_payload(&self, out: &mut Vec<u8>);
}

impl FramedPayload for String {
    fn frame_payload(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
}

impl FramedPayload for &str {
    fn frame_payload(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
}

/// The pluggable network substrate under an AXML system.
///
/// Object-safe on purpose: `axml-core` holds a
/// `Box<dyn Transport<Wire> + Send>` and never names a concrete
/// backend. See the [module docs](self) for the behavioral contract.
///
/// **Every backend is the model plus a wire.** Peers, links, faults,
/// the virtual clock, the delivery queue and the statistics live in one
/// deterministic [`SimTransport`] model that each backend exposes
/// through [`Transport::model`] / [`Transport::model_mut`]; everything
/// that only reads or updates the model is a provided method over those
/// two accessors. A backend implements what touches its wire:
/// [`Transport::backend`], [`Transport::add_peer`] and
/// [`Transport::send_attempt`].
pub trait Transport<M: Payload> {
    /// A short backend label for reports and diagnostics
    /// (`"sim"`, `"socket"`, …).
    fn backend(&self) -> &'static str;

    /// The deterministic network model under this backend.
    fn model(&self) -> &SimTransport<M>;

    /// The model, mutably.
    fn model_mut(&mut self) -> &mut SimTransport<M>;

    /// Connect a new peer, returning its id (ids are dense and
    /// assigned in registration order). For the simulator this is a
    /// table insert; for the socket backend it performs the `Hello`
    /// handshake with the peer's endpoint process.
    fn add_peer(&mut self, name: &str) -> PeerId;

    /// Attempt to send `msg`; on success returns the (virtual) arrival
    /// time, on failure returns the typed error *and the message back*
    /// so the caller can retry the same payload.
    fn send_attempt(&mut self, from: PeerId, to: PeerId, msg: M) -> Result<f64, (NetError, M)>;

    // ---- the model, through either backend ------------------------

    /// Number of connected peers.
    fn peer_count(&self) -> usize {
        self.model().peer_count()
    }

    /// The display name of a peer.
    fn peer_name<'a>(&'a self, p: PeerId) -> NetResult<&'a str>
    where
        M: 'a,
    {
        self.model().peer_name(p)
    }

    /// Configure both directions of a link.
    fn set_link(&mut self, a: PeerId, b: PeerId, cost: LinkCost) {
        self.model_mut().set_link(a, b, cost)
    }

    /// Configure one direction of a link.
    fn set_link_directed(&mut self, from: PeerId, to: PeerId, cost: LinkCost) {
        self.model_mut().set_link_directed(from, to, cost)
    }

    /// The cost of the directed link `from → to`.
    fn link(&self, from: PeerId, to: PeerId) -> LinkCost {
        self.model().link(from, to)
    }

    /// Administratively fail both directions of a link.
    fn fail_link(&mut self, a: PeerId, b: PeerId) {
        self.model_mut().fail_link(a, b)
    }

    /// Undo a [`Transport::fail_link`].
    fn restore_link(&mut self, a: PeerId, b: PeerId) {
        self.model_mut().restore_link(a, b)
    }

    /// Is the directed link administratively up?
    fn link_up(&self, from: PeerId, to: PeerId) -> bool {
        self.model().link_up(from, to)
    }

    /// Install a seeded fault plan (replaces any previous plan and
    /// restarts its attempt streams).
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.model_mut().set_fault_plan(plan)
    }

    /// Remove the installed fault plan, returning it.
    fn clear_fault_plan(&mut self) -> Option<FaultPlan> {
        self.model_mut().clear_fault_plan()
    }

    /// The installed fault plan, if any.
    fn fault_plan<'a>(&'a self) -> Option<&'a FaultPlan>
    where
        M: 'a,
    {
        self.model().fault_plan()
    }

    /// Is `to` reachable from `from` right now (administratively up, no
    /// outage window, neither peer crashed)?
    fn reachable(&self, from: PeerId, to: PeerId) -> bool {
        self.model().reachable(from, to)
    }

    /// Deliver the earliest pending message with its sender, advancing
    /// the virtual clock to its arrival time.
    fn recv_from(&mut self) -> Option<(PeerId, PeerId, M, f64)> {
        self.model_mut().recv_from()
    }

    /// Arrival time of the earliest pending delivery, if any.
    fn peek_arrival(&self) -> Option<f64> {
        self.model().peek_arrival()
    }

    /// Drop every in-flight message without delivering it (statistics
    /// are kept — they were charged at send time).
    fn clear_in_flight(&mut self) {
        self.model_mut().clear_in_flight()
    }

    /// Are deliveries pending?
    fn has_pending(&self) -> bool {
        self.model().has_pending()
    }

    /// Number of queued deliveries.
    fn pending_len(&self) -> usize {
        self.model().pending_len()
    }

    /// Current virtual time in milliseconds.
    fn now_ms(&self) -> f64 {
        self.model().now_ms()
    }

    /// Advance the virtual clock (models local computation time).
    fn advance(&mut self, ms: f64) {
        self.model_mut().advance(ms)
    }

    /// Accumulated transfer statistics.
    fn stats<'a>(&'a self) -> &'a NetStats
    where
        M: 'a,
    {
        self.model().stats()
    }

    /// Reset statistics (keeps peers, links, clock and queue).
    fn reset_stats(&mut self) {
        self.model_mut().reset_stats()
    }

    /// The active event-scheduler backend.
    fn scheduler_kind(&self) -> SchedulerKind {
        self.model().scheduler_kind()
    }

    /// Select the event-scheduler backend, migrating any pending
    /// events. Delivery order is bit-identical across backends (the
    /// equivalence contract of [`crate::wheel`]), so this is safe
    /// mid-run.
    fn set_scheduler(&mut self, kind: SchedulerKind) {
        self.model_mut().set_scheduler(kind)
    }

    /// Event-scheduler counters.
    fn sched_stats(&self) -> SchedStats {
        self.model().sched_stats()
    }

    // ---- conveniences over the required surface -------------------

    /// Fallible send discarding the returned message on error.
    fn try_send(&mut self, from: PeerId, to: PeerId, msg: M) -> NetResult<f64> {
        self.send_attempt(from, to, msg).map_err(|(e, _)| e)
    }

    /// Infallible send; panics if the link is down or faulted.
    fn send(&mut self, from: PeerId, to: PeerId, msg: M) -> f64 {
        self.try_send(from, to, msg)
            .expect("send over a down link — use try_send to handle failures")
    }

    /// Deliver the earliest pending message (receiver, message,
    /// arrival time).
    fn recv(&mut self) -> Option<(PeerId, M, f64)> {
        self.recv_from().map(|(_, to, m, at)| (to, m, at))
    }

    /// Lay down a whole standard [`Topology`] through the trait
    /// surface: peers named `p0 … pN-1`, every directed link set from
    /// [`Topology::link`]. Works identically on every backend.
    fn install_topology(&mut self, topology: &Topology) {
        let base = self.peer_count();
        let n = topology.peer_count();
        for i in 0..n {
            self.add_peer(&format!("p{}", base + i));
        }
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    let (pa, pb) = (PeerId((base + a) as u32), PeerId((base + b) as u32));
                    self.set_link_directed(pa, pb, topology.link(a, b));
                }
            }
        }
    }
}

impl<M: Payload> Transport<M> for SimTransport<M> {
    fn backend(&self) -> &'static str {
        "sim"
    }

    fn model(&self) -> &SimTransport<M> {
        self
    }

    fn model_mut(&mut self) -> &mut SimTransport<M> {
        self
    }

    fn add_peer(&mut self, name: &str) -> PeerId {
        SimTransport::add_peer(self, name)
    }

    fn send_attempt(&mut self, from: PeerId, to: PeerId, msg: M) -> Result<f64, (NetError, M)> {
        SimTransport::send_attempt(self, from, to, msg)
    }

    fn install_topology(&mut self, topology: &Topology) {
        // O(n) fast path: the simulator stores topologies by rule
        // instead of materializing the n² link matrix.
        SimTransport::install_topology(self, topology)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_behaves_identically_through_the_trait_object() {
        let mut direct: SimTransport<String> = SimTransport::new();
        let a = direct.add_peer("a");
        let b = direct.add_peer("b");
        direct.set_link(a, b, LinkCost::wan());
        let at_direct = direct.send(a, b, "x".repeat(100));

        let mut boxed: Box<dyn Transport<String>> = Box::new(SimTransport::<String>::new());
        let a2 = boxed.add_peer("a");
        let b2 = boxed.add_peer("b");
        assert_eq!((a2, b2), (a, b));
        boxed.set_link(a2, b2, LinkCost::wan());
        let at_boxed = boxed.send(a2, b2, "x".repeat(100));

        assert_eq!(at_direct, at_boxed);
        assert_eq!(boxed.backend(), "sim");
        assert_eq!(
            boxed.stats().total_bytes(),
            direct.stats().total_bytes(),
            "identical charging through either surface"
        );
        let (to, msg, _) = boxed.recv().unwrap();
        assert_eq!((to, msg.len()), (b, 100));
    }

    #[test]
    fn install_topology_matches_with_topology() {
        let t = Topology::Clustered {
            clusters: vec![2, 2],
            intra: LinkCost::lan(),
            inter: LinkCost::wan(),
        };
        let reference: SimTransport<String> = SimTransport::with_topology(&t);
        let mut via_trait: SimTransport<String> = SimTransport::new();
        Transport::<String>::install_topology(&mut via_trait, &t);
        assert_eq!(via_trait.peer_count(), reference.peer_count());
        for a in 0..4u32 {
            for b in 0..4u32 {
                assert_eq!(
                    via_trait.link(PeerId(a), PeerId(b)),
                    reference.link(PeerId(a), PeerId(b)),
                    "link {a}->{b}"
                );
            }
        }
        assert_eq!(via_trait.peer_name(PeerId(3)).unwrap(), "p3");
    }

    #[test]
    fn string_frame_payloads_are_their_bytes() {
        let mut out = b"head".to_vec();
        "hi".frame_payload(&mut out);
        String::from("hé").frame_payload(&mut out);
        assert_eq!(out, "headhihé".as_bytes(), "appended, nothing overwritten");
    }
}
