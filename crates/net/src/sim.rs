//! The network model: a discrete-event simulator, with an optional
//! wire under it.
//!
//! A [`SimTransport`] owns the peer table, the link model, a virtual clock and
//! an event scheduler. [`SimTransport::send`] computes the message's arrival time
//! from the link cost, charges the statistics, and enqueues a delivery
//! event; [`SimTransport::recv`] pops the earliest pending delivery and advances
//! the clock to it. Ties are broken by send order, so runs are fully
//! deterministic.
//!
//! It is the one network the engine holds. Built with
//! [`SimTransport::over`] it additionally shows a
//! [`Transport`] — the socket wire, a test fake —
//! every peer it registers and every cross-peer message it accepts,
//! between the fault gate and the delivery queue; time, faults and
//! statistics stay the model's either way, so a run is bit-identical
//! with and without a wire.
//!
//! Storage is **sparse** so EDOS-scale networks (10⁴–10⁵ peers) fit in
//! memory: link costs resolve from an optional base [`Topology`] plus
//! point overrides (one shared, stamped [`LinkTable`]), and per-link
//! busy/failed state exists only for links actually touched —
//! O(peers + touched links), never O(peers²).
//! The delivery queue is the binary heap of [`crate::wheel`].
//!
//! ```
//! use axml_net::sim::SimTransport;
//! use axml_net::link::LinkCost;
//!
//! let mut net: SimTransport<String> = SimTransport::new();
//! let a = net.add_peer("a");
//! let b = net.add_peer("b");
//! net.set_link(a, b, LinkCost::wan());
//! net.try_send(a, b, "hello".to_string()).unwrap();
//! let (to, msg, at) = net.recv().unwrap();
//! assert_eq!((to, msg.as_str()), (b, "hello"));
//! assert_eq!(net.now_ms(), at);
//! assert_eq!(net.backend(), "sim");
//! ```
//!
//! Each **directed link** carries one message at a time: a second send on
//! a busy link queues behind the first (`busy_until`), while sends on
//! *different* links overlap freely. The makespan of a fan-out is
//! therefore the critical path — the slowest single transfer — not the
//! byte sum, and per-link FIFO ordering is structural.
//!
//! The simulator is generic over the message type ([`crate::Payload`]);
//! `axml-core` drives it with AXML messages, tests with plain strings.
//!
//! ## Fault injection
//!
//! A seeded [`FaultPlan`] can be installed with
//! [`SimTransport::set_fault_plan`]: per-message drop probability, latency
//! jitter, transient outage windows on the virtual clock, and periodic
//! peer crash/restart schedules. All randomness derives statelessly from
//! `(seed, from, to, attempt#)` via `axml-prng`, so a run reproduces
//! bit-exactly from its seed regardless of how the caller interleaves
//! other PRNG draws.

use crate::error::{NetError, NetResult};
use crate::link::{LinkCost, Topology};
use crate::stats::NetStats;
use crate::transport::Transport;
use crate::wheel::{SchedStats, Scheduler};
use crate::Payload;
use axml_prng::SplitMix64;
use axml_xml::ids::PeerId;
use axml_xml::store::fresh_stamp;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A transient outage window: the **directed** link `from → to` is
/// unusable while `start_ms <= now < end_ms` on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// Sending side of the affected directed link.
    pub from: PeerId,
    /// Receiving side of the affected directed link.
    pub to: PeerId,
    /// Window start (inclusive), in virtual milliseconds.
    pub start_ms: f64,
    /// Window end (exclusive), in virtual milliseconds.
    pub end_ms: f64,
}

impl Outage {
    fn covers(&self, from: PeerId, to: PeerId, now: f64) -> bool {
        self.from == from && self.to == to && now >= self.start_ms && now < self.end_ms
    }
}

/// A periodic crash/restart schedule for one peer: starting at
/// `first_ms`, the peer crashes every `period_ms` and stays down for
/// `down_ms` each time. While crashed, every send to *or* from the peer
/// fails with [`NetError::PeerDown`]; local computation is unaffected
/// (the model is a NIC outage, not state loss).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashSchedule {
    /// The crashing peer.
    pub peer: PeerId,
    /// Virtual time of the first crash.
    pub first_ms: f64,
    /// How long each crash lasts.
    pub down_ms: f64,
    /// Distance between crash starts (must be ≥ `down_ms`).
    pub period_ms: f64,
}

impl CrashSchedule {
    fn down_at(&self, p: PeerId, now: f64) -> bool {
        if p != self.peer || now < self.first_ms {
            return false;
        }
        let phase = (now - self.first_ms) % self.period_ms;
        phase < self.down_ms
    }
}

/// A seeded, fully deterministic fault-injection plan.
///
/// Install with [`SimTransport::set_fault_plan`]. Faults are applied at send
/// time, in this order:
///
/// 1. **Crash windows** — sender or receiver crashed now ⇒
///    [`NetError::PeerDown`];
/// 2. **Outage windows** — directed link inside a window ⇒
///    [`NetError::LinkDown`];
/// 3. **Drops** — with probability `drop_prob` the message is lost:
///    the network counts a drop ([`NetStats::total_dropped`]) and
///    returns [`NetError::Dropped`] without occupying the link;
/// 4. **Jitter** — surviving messages gain a uniform extra delay in
///    `[0, jitter_ms)`.
///
/// Drop and jitter draws come from a PRNG seeded by
/// `(seed, from, to, attempt#)`, where `attempt#` is a monotone
/// per-network counter of faultable send attempts — two runs with the
/// same seed and the same send sequence fault identically.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_prob: f64,
    jitter_ms: f64,
    outages: Vec<Outage>,
    crashes: Vec<CrashSchedule>,
}

/// Domain separator for per-attempt fault streams.
const FAULT_STREAM_SALT: u64 = 0xFA17_1A7E_D00D_5EED;

impl FaultPlan {
    /// A plan with no faults; compose with the builder methods.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            jitter_ms: 0.0,
            outages: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Set the per-message drop probability (applied to every
    /// cross-peer send).
    pub fn drop_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability must be in [0,1]"
        );
        self.drop_prob = p;
        self
    }

    /// Add up to `ms` of uniform latency jitter to every delivery.
    pub fn jitter_ms(mut self, ms: f64) -> Self {
        assert!(ms >= 0.0, "jitter must be non-negative");
        self.jitter_ms = ms;
        self
    }

    /// Add an outage window covering **both** directions of a link.
    pub fn outage(mut self, a: PeerId, b: PeerId, start_ms: f64, end_ms: f64) -> Self {
        assert!(start_ms <= end_ms, "outage window must not be inverted");
        self.outages.push(Outage {
            from: a,
            to: b,
            start_ms,
            end_ms,
        });
        self.outages.push(Outage {
            from: b,
            to: a,
            start_ms,
            end_ms,
        });
        self
    }

    /// Add an outage window on a single directed link.
    pub fn outage_directed(mut self, from: PeerId, to: PeerId, start_ms: f64, end_ms: f64) -> Self {
        assert!(start_ms <= end_ms, "outage window must not be inverted");
        self.outages.push(Outage {
            from,
            to,
            start_ms,
            end_ms,
        });
        self
    }

    /// Add a periodic crash/restart schedule for one peer.
    pub fn crash(mut self, peer: PeerId, first_ms: f64, down_ms: f64, period_ms: f64) -> Self {
        assert!(down_ms >= 0.0 && period_ms > 0.0, "bad crash schedule");
        assert!(period_ms >= down_ms, "crash period must cover the downtime");
        self.crashes.push(CrashSchedule {
            peer,
            first_ms,
            down_ms,
            period_ms,
        });
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Installed outage windows.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// Installed crash schedules.
    pub fn crashes(&self) -> &[CrashSchedule] {
        &self.crashes
    }

    /// Is the directed link inside any outage window at `now`?
    pub fn link_out(&self, from: PeerId, to: PeerId, now: f64) -> bool {
        self.outages.iter().any(|o| o.covers(from, to, now))
    }

    /// Is the peer inside any crash window at `now`?
    pub fn peer_down(&self, p: PeerId, now: f64) -> bool {
        self.crashes.iter().any(|c| c.down_at(p, now))
    }

    /// The deterministic per-attempt fault stream.
    fn attempt_rng(&self, from: PeerId, to: PeerId, attempt: u64) -> SplitMix64 {
        let link = ((from.0 as u64) << 32) | to.0 as u64;
        SplitMix64::new(
            self.seed
                ^ FAULT_STREAM_SALT
                ^ link.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ attempt.wrapping_mul(0xBF58_476D_1CE4_E5B9),
        )
    }
}

/// The link rule of a network: what each directed link costs and
/// whether it is administratively up.
///
/// A [`SimTransport`] keeps it behind an `Arc`; each of its doors
/// (`set_link`, `set_link_directed`, `fail_link`, `restore_link`,
/// `install_topology`) copies it on write and draws a fresh
/// [`LinkTable::stamp`]. A clone of the `Arc` keeps the links as they
/// were, and two tables with one stamp hold the same links.
#[derive(Debug, Clone, Default)]
pub struct LinkTable {
    /// Base pairwise costs for the first `.1` peers (installed by
    /// [`SimTransport::with_topology`]); links involving later peers
    /// default to [`LinkCost::lan`] / [`LinkCost::local`].
    base: Option<(Topology, usize)>,
    /// Point link-cost overrides, directed.
    overrides: HashMap<(u32, u32), LinkCost>,
    /// Administratively failed directed links.
    admin_down: HashSet<(u32, u32)>,
    /// Drawn by every door; 0 for a table none moved.
    stamp: u64,
}

impl LinkTable {
    /// The cost of the directed link `from → to`: a point override if
    /// one was set, the base topology's pairwise cost if both ends are
    /// in it, [`LinkCost::local`] to self, [`LinkCost::lan`] otherwise.
    pub fn link(&self, from: PeerId, to: PeerId) -> LinkCost {
        if let Some(&c) = self.overrides.get(&(from.0, to.0)) {
            return c;
        }
        if from == to {
            return LinkCost::local();
        }
        if let Some((topo, n)) = &self.base {
            if from.index() < *n && to.index() < *n {
                return topo.link(from.index(), to.index());
            }
        }
        LinkCost::lan()
    }

    /// Is the directed link administratively up?
    pub fn link_up(&self, from: PeerId, to: PeerId) -> bool {
        !self.admin_down.contains(&(from.0, to.0))
    }

    /// The table's mutation stamp, compared for equality only.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }
}

/// A simulated network of peers.
///
/// Storage is sparse (see the [module docs](self)): link costs come
/// from an optional base [`Topology`] plus point overrides, and
/// busy/failed link state is kept only for links actually touched.
pub struct SimTransport<M> {
    peer_names: Vec<String>,
    /// The link rule, shared with whoever snapshots it.
    links: Arc<LinkTable>,
    /// Per touched directed link: the time its current transfer
    /// finishes. Sends on a busy link start when it frees up (per-link
    /// serialization); sends on distinct links overlap. Point-queried
    /// only — map iteration order is never observed, so the map's
    /// nondeterministic ordering cannot leak into a run.
    busy_until: HashMap<(u32, u32), f64>,
    sched: Scheduler<(PeerId, PeerId, M)>,
    stats: NetStats,
    clock_ms: f64,
    seq: u64,
    fault: Option<FaultPlan>,
    /// Monotone counter of faultable (cross-peer, plan-installed) send
    /// attempts — the index into the plan's per-attempt fault streams.
    attempts: u64,
    /// What also carries each accepted cross-peer message, if anything.
    wire: Option<Box<dyn Transport<M> + Send>>,
}

impl<M: Payload> SimTransport<M> {
    /// An empty network.
    pub fn new() -> Self {
        SimTransport {
            peer_names: Vec::new(),
            links: Arc::default(),
            busy_until: HashMap::new(),
            sched: Scheduler::default(),
            stats: NetStats::new(),
            clock_ms: 0.0,
            seq: 0,
            fault: None,
            attempts: 0,
            wire: None,
        }
    }

    /// An empty network whose accepted cross-peer messages also travel
    /// over `wire` (see [`Transport`] for what the wire is shown).
    pub fn over(wire: Box<dyn Transport<M> + Send>) -> Self {
        SimTransport {
            wire: Some(wire),
            ..SimTransport::new()
        }
    }

    /// `"sim"`, or the attached wire's [`Transport::label`].
    pub fn backend(&self) -> &'static str {
        self.wire.as_ref().map_or("sim", |w| w.label())
    }

    /// Build a network from a topology; peers are named `p0 … pn-1`.
    ///
    /// O(n): the topology is stored by rule, not materialized into a
    /// link matrix — this is the 10⁵-peer construction path.
    pub fn with_topology(topology: &Topology) -> Self {
        let mut net = SimTransport::new();
        net.install_topology(topology);
        net
    }

    /// Append a whole [`Topology`] block of peers named
    /// `p{base} … p{base+n-1}`. On an empty network the topology is
    /// stored by rule (O(n)); on a non-empty one the block's pairwise
    /// costs are laid down as point overrides.
    pub fn install_topology(&mut self, topology: &Topology) {
        let at = self.peer_count();
        let n = topology.peer_count();
        for i in 0..n {
            self.add_peer(format!("p{}", at + i));
        }
        let table = Arc::make_mut(&mut self.links);
        table.stamp = fresh_stamp();
        if at == 0 && table.base.is_none() && table.overrides.is_empty() {
            table.base = Some((topology.clone(), n));
            return;
        }
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    let key = ((at + a) as u32, (at + b) as u32);
                    table.overrides.insert(key, topology.link(a, b));
                }
            }
        }
    }

    /// Register a peer; links to every existing peer default to
    /// [`LinkCost::lan`] (and to [`LinkCost::local`] for itself).
    ///
    /// An attached wire connects its end of the peer — for the socket
    /// wire that is the `Hello` handshake with the endpoint process.
    pub fn add_peer(&mut self, name: impl Into<String>) -> PeerId {
        let id = PeerId::from_index(self.peer_names.len()).expect("peer table exceeds u32 indices");
        let name = name.into();
        if let Some(wire) = &mut self.wire {
            wire.connect(id, &name);
        }
        self.peer_names.push(name);
        id
    }

    /// Inject a failure: both directions of the link become unusable
    /// until [`SimTransport::restore_link`]. Sending over a down link returns
    /// [`NetError::LinkDown`] from [`SimTransport::try_send`] (the infallible
    /// [`SimTransport::send`] panics).
    pub fn fail_link(&mut self, a: PeerId, b: PeerId) {
        let table = Arc::make_mut(&mut self.links);
        table.admin_down.extend([(a.0, b.0), (b.0, a.0)]);
        table.stamp = fresh_stamp();
    }

    /// Undo a [`SimTransport::fail_link`].
    pub fn restore_link(&mut self, a: PeerId, b: PeerId) {
        let table = Arc::make_mut(&mut self.links);
        table.admin_down.remove(&(a.0, b.0));
        table.admin_down.remove(&(b.0, a.0));
        table.stamp = fresh_stamp();
    }

    /// The link table: what every link costs and whether it is up. A
    /// clone of the `Arc` is a snapshot the network's doors never move.
    pub fn links(&self) -> &Arc<LinkTable> {
        &self.links
    }

    /// Install a fault plan; replaces any previous plan and resets the
    /// attempt counter so the plan's fault streams start from zero.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
        self.attempts = 0;
    }

    /// Remove the installed fault plan, returning it.
    pub fn clear_fault_plan(&mut self) -> Option<FaultPlan> {
        self.attempts = 0;
        self.fault.take()
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Is `to` reachable from `from` *right now* — link administratively
    /// up, no covering outage window, neither peer crashed? Probabilistic
    /// drops are not considered (they are per-message, not per-link).
    pub fn reachable(&self, from: PeerId, to: PeerId) -> bool {
        if from == to {
            return true;
        }
        if !self.links.link_up(from, to) {
            return false;
        }
        match &self.fault {
            None => true,
            Some(plan) => {
                !plan.link_out(from, to, self.clock_ms)
                    && !plan.peer_down(from, self.clock_ms)
                    && !plan.peer_down(to, self.clock_ms)
            }
        }
    }

    /// Number of peers.
    pub fn peer_count(&self) -> usize {
        self.peer_names.len()
    }

    /// All peer ids.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> {
        (0..self.peer_names.len() as u32).map(PeerId)
    }

    /// The display name of a peer.
    pub fn peer_name(&self, p: PeerId) -> NetResult<&str> {
        self.peer_names
            .get(p.index())
            .map(String::as_str)
            .ok_or(NetError::UnknownPeer(p))
    }

    /// Configure both directions of a link.
    pub fn set_link(&mut self, a: PeerId, b: PeerId, cost: LinkCost) {
        let table = Arc::make_mut(&mut self.links);
        table
            .overrides
            .extend([((a.0, b.0), cost), ((b.0, a.0), cost)]);
        table.stamp = fresh_stamp();
    }

    /// Configure one direction of a link.
    pub fn set_link_directed(&mut self, from: PeerId, to: PeerId, cost: LinkCost) {
        let table = Arc::make_mut(&mut self.links);
        table.overrides.insert((from.0, to.0), cost);
        table.stamp = fresh_stamp();
    }

    /// The cost of the directed link `from → to` ([`LinkTable::link`]).
    pub fn link(&self, from: PeerId, to: PeerId) -> LinkCost {
        self.links.link(from, to)
    }

    /// Send `msg` from `from` to `to`; returns the arrival time (ms).
    ///
    /// The message is charged against the link immediately and delivered
    /// when the clock reaches the arrival time ([`SimTransport::recv`]).
    pub fn send(&mut self, from: PeerId, to: PeerId, msg: M) -> f64 {
        self.try_send(from, to, msg)
            .expect("send over a down link — use try_send to handle failures")
    }

    /// Fallible send: errors when the link is down or the installed
    /// [`FaultPlan`] intervenes (failure injection).
    pub fn try_send(&mut self, from: PeerId, to: PeerId, msg: M) -> NetResult<f64> {
        self.send_attempt(from, to, msg).map_err(|(e, _)| e)
    }

    /// Like [`SimTransport::try_send`], but returns the undelivered message
    /// alongside the error so callers can retry the same payload.
    ///
    /// Gate → wire → queue: the deterministic fault gate decides first,
    /// so a refused attempt never reaches the wire; an accepted
    /// cross-peer message is shipped over the attached wire, if any
    /// (local deliveries skip it, as they skip the statistics); only
    /// then is the delivery charged and queued. A wire failure
    /// ([`NetError::Wire`]) hands the message back like any other refusal.
    pub fn send_attempt(&mut self, from: PeerId, to: PeerId, msg: M) -> Result<f64, (NetError, M)> {
        let jitter = match self.fault_gate(from, to) {
            Ok(jitter) => jitter,
            Err(e) => return Err((e, msg)),
        };
        if from != to {
            if let Some(wire) = &mut self.wire {
                if let Err(e) = wire.ship(from, to, &msg) {
                    return Err((e, msg));
                }
            }
        }
        Ok(self.enqueue(from, to, msg, jitter))
    }

    /// The fault half of a send attempt: link state, crash/outage
    /// windows and the seeded drop/jitter draw. Returns the jitter to
    /// add to the transfer.
    fn fault_gate(&mut self, from: PeerId, to: PeerId) -> NetResult<f64> {
        assert!(
            from.index() < self.peer_names.len(),
            "unknown sender {from}"
        );
        assert!(to.index() < self.peer_names.len(), "unknown receiver {to}");
        let mut jitter = 0.0;
        if from != to {
            if !self.links.link_up(from, to) {
                return Err(NetError::LinkDown(from, to));
            }
            if let Some(plan) = &self.fault {
                // Crash and outage windows are clock-driven and burn no
                // randomness; drops and jitter draw from the per-attempt
                // stream indexed by a monotone counter, so the fault
                // sequence is a pure function of (seed, send sequence).
                for p in [from, to] {
                    if plan.peer_down(p, self.clock_ms) {
                        return Err(NetError::PeerDown(p));
                    }
                }
                if plan.link_out(from, to, self.clock_ms) {
                    return Err(NetError::LinkDown(from, to));
                }
                let mut rng = plan.attempt_rng(from, to, self.attempts);
                let dropped = plan.drop_prob > 0.0 && rng.gen_bool(plan.drop_prob);
                if plan.jitter_ms > 0.0 {
                    jitter = rng.gen_range(0.0..plan.jitter_ms);
                }
                self.attempts += 1;
                if dropped {
                    self.stats.record_drop(from, to);
                    return Err(NetError::Dropped(from, to));
                }
            }
        }
        Ok(jitter)
    }

    /// The delivery half of a send attempt: charge the link, compute the
    /// arrival time and queue the delivery event.
    fn enqueue(&mut self, from: PeerId, to: PeerId, msg: M, jitter: f64) -> f64 {
        let cost = self.link(from, to);
        let size = msg.wire_size();
        let transfer = cost.transfer_ms(size) + jitter;
        // The transfer starts when the directed link frees up; local
        // deliveries never occupy a link.
        let at = if from == to {
            self.clock_ms
        } else {
            let busy = self.busy_until.entry((from.0, to.0)).or_insert(0.0);
            let start = self.clock_ms.max(*busy);
            let done = start + transfer;
            *busy = done;
            done
        };
        self.stats
            .record(from, to, cost.charged_bytes(size), transfer, at);
        self.sched.push(at, self.seq, (from, to, msg));
        self.seq += 1;
        at
    }

    /// Deliver the earliest pending message, advancing the clock to its
    /// arrival time. Returns `(recipient, message, arrival_ms)`.
    pub fn recv(&mut self) -> Option<(PeerId, M, f64)> {
        let (at, _, (_, to, msg)) = self.sched.pop()?;
        if at > self.clock_ms {
            self.clock_ms = at;
        }
        Some((to, msg, at))
    }

    /// Deliver the earliest pending message together with its sender.
    pub fn recv_from(&mut self) -> Option<(PeerId, PeerId, M, f64)> {
        let (at, _, (from, to, msg)) = self.sched.pop()?;
        if at > self.clock_ms {
            self.clock_ms = at;
        }
        Some((from, to, msg, at))
    }

    /// Arrival time of the earliest pending delivery, if any.
    pub fn peek_arrival(&self) -> Option<f64> {
        self.sched.peek_at()
    }

    /// Drop every in-flight message without delivering it. Statistics
    /// are unaffected (they are charged at send time) — this is the
    /// abort path when an evaluation session fails mid-flight. The
    /// discarded events are counted in [`SchedStats::cleared`].
    pub fn clear_in_flight(&mut self) {
        self.sched.clear();
    }

    /// Are deliveries pending?
    pub fn has_pending(&self) -> bool {
        !self.sched.is_empty()
    }

    /// Number of queued deliveries.
    pub fn pending_len(&self) -> usize {
        self.sched.len()
    }

    /// Event-scheduler counters (pushes, pops, clears).
    pub fn sched_stats(&self) -> SchedStats {
        self.sched.stats()
    }

    /// Current simulated time in milliseconds.
    pub fn now_ms(&self) -> f64 {
        self.clock_ms
    }

    /// Advance the clock (models local computation time).
    pub fn advance(&mut self, ms: f64) {
        assert!(ms >= 0.0, "time only moves forward");
        self.clock_ms += ms;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Reset statistics (keeps peers, links, clock and queue).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

impl<M: Payload> Default for SimTransport<M> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_per_send_order_on_ties() {
        let mut net: SimTransport<String> = SimTransport::new();
        let a = net.add_peer("a");
        let b = net.add_peer("b");
        net.set_link(a, b, LinkCost::local());
        net.send(a, b, "first".to_string());
        net.send(a, b, "second".to_string());
        assert_eq!(net.recv().unwrap().1, "first");
        assert_eq!(net.recv().unwrap().1, "second");
        assert!(net.recv().is_none());
    }

    #[test]
    fn arrival_order_by_time() {
        let mut net: SimTransport<String> = SimTransport::new();
        let a = net.add_peer("a");
        let b = net.add_peer("b");
        let c = net.add_peer("c");
        net.set_link(a, b, LinkCost::slow());
        net.set_link(a, c, LinkCost::lan());
        net.send(a, b, "slow".to_string());
        net.send(a, c, "fast".to_string());
        let (to1, m1, t1) = net.recv().unwrap();
        assert_eq!((to1, m1.as_str()), (c, "fast"));
        let (to2, m2, t2) = net.recv().unwrap();
        assert_eq!((to2, m2.as_str()), (b, "slow"));
        assert!(t1 < t2);
        assert!((net.now_ms() - t2).abs() < 1e-12);
    }

    #[test]
    fn stats_are_charged_on_send() {
        let mut net: SimTransport<String> = SimTransport::new();
        let a = net.add_peer("a");
        let b = net.add_peer("b");
        net.set_link(a, b, LinkCost::wan());
        net.send(a, b, "x".repeat(1000));
        assert_eq!(net.stats().total_messages(), 1);
        assert_eq!(
            net.stats().total_bytes(),
            1000 + LinkCost::wan().per_msg_bytes as u64
        );
    }

    #[test]
    fn local_send_is_free() {
        let mut net: SimTransport<String> = SimTransport::new();
        let a = net.add_peer("a");
        let at = net.send(a, a, "self".to_string());
        assert_eq!(at, 0.0);
        assert_eq!(net.stats().total_bytes(), 0);
        let (to, msg, _) = net.recv().unwrap();
        assert_eq!((to, msg.as_str()), (a, "self"));
    }

    #[test]
    fn topology_construction() {
        let net: SimTransport<String> = SimTransport::with_topology(&Topology::Clustered {
            clusters: vec![2, 2],
            intra: LinkCost::lan(),
            inter: LinkCost::wan(),
        });
        assert_eq!(net.peer_count(), 4);
        assert_eq!(net.link(PeerId(0), PeerId(1)), LinkCost::lan());
        assert_eq!(net.link(PeerId(0), PeerId(2)), LinkCost::wan());
        assert_eq!(net.link(PeerId(3), PeerId(3)), LinkCost::local());
        assert_eq!(net.peer_name(PeerId(2)).unwrap(), "p2");
        assert!(net.peer_name(PeerId(9)).is_err());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut net: SimTransport<String> = SimTransport::new();
        let a = net.add_peer("a");
        let b = net.add_peer("b");
        net.set_link(a, b, LinkCost::lan());
        net.advance(10.0);
        assert_eq!(net.now_ms(), 10.0);
        let at = net.send(a, b, "m".to_string());
        assert!(at > 10.0);
        net.recv();
        assert!(net.now_ms() >= at);
    }

    #[test]
    fn directed_links() {
        let mut net: SimTransport<String> = SimTransport::new();
        let a = net.add_peer("a");
        let b = net.add_peer("b");
        net.set_link_directed(a, b, LinkCost::slow());
        net.set_link_directed(b, a, LinkCost::lan());
        assert_eq!(net.link(a, b), LinkCost::slow());
        assert_eq!(net.link(b, a), LinkCost::lan());
    }

    #[test]
    fn recv_from_reports_sender() {
        let mut net: SimTransport<String> = SimTransport::new();
        let a = net.add_peer("a");
        let b = net.add_peer("b");
        net.send(a, b, "hi".to_string());
        let (from, to, msg, _) = net.recv_from().unwrap();
        assert_eq!((from, to, msg.as_str()), (a, b, "hi"));
    }

    #[test]
    fn distinct_links_overlap() {
        let mut net: SimTransport<String> = SimTransport::new();
        let a = net.add_peer("a");
        let b = net.add_peer("b");
        let c = net.add_peer("c");
        net.set_link(a, b, LinkCost::wan());
        net.set_link(a, c, LinkCost::wan());
        let payload = "x".repeat(10_000);
        let t1 = net.send(a, b, payload.clone());
        let t2 = net.send(a, c, payload.clone());
        // Different directed links: both transfers run concurrently.
        assert!((t1 - t2).abs() < 1e-9, "{t1} vs {t2}");
        let one = LinkCost::wan().transfer_ms(payload.len());
        assert!((t1 - one).abs() < 1e-9);
        while net.recv().is_some() {}
        assert!((net.stats().makespan_ms() - one).abs() < 1e-9);
        // The sequential proxy still sums both transfers.
        assert!(net.stats().weighted_cost_ms() > 1.9 * one);
    }

    #[test]
    fn same_link_serializes() {
        let mut net: SimTransport<String> = SimTransport::new();
        let a = net.add_peer("a");
        let b = net.add_peer("b");
        net.set_link(a, b, LinkCost::wan());
        let payload = "x".repeat(10_000);
        let one = LinkCost::wan().transfer_ms(payload.len());
        let t1 = net.send(a, b, payload.clone());
        let t2 = net.send(a, b, payload.clone());
        assert!((t1 - one).abs() < 1e-9);
        assert!((t2 - 2.0 * one).abs() < 1e-9, "second waits for the link");
        // The reverse direction is its own link and does not queue.
        let t3 = net.send(b, a, payload);
        assert!((t3 - one).abs() < 1e-9);
    }

    #[test]
    fn clear_in_flight_keeps_stats() {
        let mut net: SimTransport<String> = SimTransport::new();
        let a = net.add_peer("a");
        let b = net.add_peer("b");
        net.set_link(a, b, LinkCost::wan());
        net.send(a, b, "doomed".to_string());
        assert_eq!(net.peek_arrival(), Some(net.stats().makespan_ms()));
        net.clear_in_flight();
        assert!(!net.has_pending());
        assert_eq!(net.peek_arrival(), None);
        assert_eq!(net.stats().total_messages(), 1, "charged at send");
    }

    /// Drive every queued send of `msgs` bytes through the network,
    /// retrying drops, and return (delivered, dropped-before-success).
    fn pump(net: &mut SimTransport<String>, a: PeerId, b: PeerId, n: usize) -> (u64, u64) {
        let mut delivered = 0;
        for i in 0..n {
            loop {
                match net.try_send(a, b, format!("m{i}")) {
                    Ok(_) => break,
                    Err(NetError::Dropped(..)) => continue,
                    Err(e) => panic!("unexpected {e}"),
                }
            }
        }
        while net.recv().is_some() {
            delivered += 1;
        }
        (delivered, net.stats().total_dropped())
    }

    #[test]
    fn fault_plan_drops_reproduce_from_seed() {
        let run = |seed: u64| {
            let mut net: SimTransport<String> = SimTransport::new();
            let a = net.add_peer("a");
            let b = net.add_peer("b");
            net.set_fault_plan(FaultPlan::new(seed).drop_prob(0.3));
            let (delivered, dropped) = pump(&mut net, a, b, 50);
            (delivered, dropped, net.stats().total_bytes())
        };
        let first = run(7);
        assert_eq!(first, run(7), "same seed ⇒ identical faults");
        assert_eq!(first.0, 50, "retries eventually deliver everything");
        assert!(first.1 > 0, "a 30% drop rate must drop something");
        assert_ne!(first.1, run(8).1, "different seed ⇒ different faults");
    }

    #[test]
    fn outage_window_opens_and_closes() {
        let mut net: SimTransport<String> = SimTransport::new();
        let a = net.add_peer("a");
        let b = net.add_peer("b");
        net.set_fault_plan(FaultPlan::new(1).outage(a, b, 10.0, 20.0));
        assert!(net.try_send(a, b, "before".into()).is_ok());
        assert!(net.reachable(a, b));
        net.advance(10.0 - net.now_ms()); // into the window
        assert!(!net.reachable(a, b));
        assert_eq!(
            net.try_send(a, b, "during".into()),
            Err(NetError::LinkDown(a, b))
        );
        net.advance(10.0); // now 20.0: window closed
        assert!(net.reachable(a, b));
        assert!(net.try_send(a, b, "after".into()).is_ok());
    }

    #[test]
    fn crash_schedule_is_periodic() {
        let mut net: SimTransport<String> = SimTransport::new();
        let a = net.add_peer("a");
        let b = net.add_peer("b");
        // b crashes at t=5 for 2ms, every 10ms.
        net.set_fault_plan(FaultPlan::new(1).crash(b, 5.0, 2.0, 10.0));
        assert!(net.try_send(a, b, "up".into()).is_ok());
        net.advance(6.0 - net.now_ms());
        assert_eq!(net.try_send(a, b, "x".into()), Err(NetError::PeerDown(b)));
        assert_eq!(net.try_send(b, a, "x".into()), Err(NetError::PeerDown(b)));
        assert!(!net.reachable(a, b));
        net.advance(2.0); // t=8: restarted
        assert!(net.try_send(a, b, "back".into()).is_ok());
        net.advance(8.0); // t=16: second crash window
        assert_eq!(net.try_send(a, b, "x".into()), Err(NetError::PeerDown(b)));
    }

    #[test]
    fn jitter_delays_but_preserves_charges() {
        let base = {
            let mut net: SimTransport<String> = SimTransport::new();
            let a = net.add_peer("a");
            let b = net.add_peer("b");
            net.set_link(a, b, LinkCost::wan());
            net.send(a, b, "x".repeat(500));
            (net.peek_arrival().unwrap(), net.stats().total_bytes())
        };
        let mut net: SimTransport<String> = SimTransport::new();
        let a = net.add_peer("a");
        let b = net.add_peer("b");
        net.set_link(a, b, LinkCost::wan());
        net.set_fault_plan(FaultPlan::new(42).jitter_ms(25.0));
        let at = net.send(a, b, "x".repeat(500));
        assert!(at >= base.0, "jitter only adds delay");
        assert!(at < base.0 + 25.0);
        assert_eq!(net.stats().total_bytes(), base.1, "charges unchanged");
    }

    #[test]
    fn clearing_the_plan_restores_calm() {
        let mut net: SimTransport<String> = SimTransport::new();
        let a = net.add_peer("a");
        let b = net.add_peer("b");
        net.set_fault_plan(FaultPlan::new(3).drop_prob(1.0));
        assert_eq!(net.try_send(a, b, "x".into()), Err(NetError::Dropped(a, b)));
        let plan = net.clear_fault_plan().unwrap();
        assert_eq!(plan.seed(), 3);
        assert!(net.try_send(a, b, "x".into()).is_ok());
        assert_eq!(net.stats().total_dropped(), 1);
    }

    #[test]
    fn local_sends_never_fault() {
        let mut net: SimTransport<String> = SimTransport::new();
        let a = net.add_peer("a");
        net.set_fault_plan(FaultPlan::new(3).drop_prob(1.0).crash(a, 0.0, 10.0, 10.0));
        assert!(net.try_send(a, a, "self".into()).is_ok());
        assert!(net.reachable(a, a));
    }

    #[test]
    fn pending_introspection() {
        let mut net: SimTransport<String> = SimTransport::new();
        let a = net.add_peer("a");
        assert!(!net.has_pending());
        net.send(a, a, "x".to_string());
        assert!(net.has_pending());
        assert_eq!(net.pending_len(), 1);
        net.recv();
        assert!(!net.has_pending());
    }
}
