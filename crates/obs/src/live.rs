//! [`LiveStats`] — the streaming counterpart of [`crate::EvalMetrics`].
//!
//! The engine counts each occurrence by recording its event
//! ([`crate::Obs::record`], which folds it into its `EvalMetrics` with
//! [`EvalMetrics::fold`]); `LiveStats` is folded *outside* it, one
//! [`TraceEvent`] at a time, by whoever is consuming the trace stream — a
//! follow-mode reader tailing a growing file, the `axml-top` dashboard on
//! a live socket, or a batch replay. There is one mapping from events to
//! counters, and `LiveStats::fold` applies that same `EvalMetrics::fold`
//! to the decoded stream, so the two land on the same numbers exactly
//! when the stream is complete: [`LiveStats::reconcile`] checks that
//! counter-for-counter and is asserted at stream end by the property
//! tests and the dashboard's `--once` mode.
//!
//! On top of the counters, `LiveStats` derives what the batch layer
//! cannot: per-message latency quantiles (from the `[sent_ms, at_ms]`
//! in-flight window of every [`TraceEvent::MessageSent`]), sliding
//! goodput windows over virtual time, per-peer in-flight gauges, and
//! per-peer × per-[`MessageKind`] breakdowns.

use crate::hist::{LatencyHistogram, RateWindow};
use crate::kind::MessageKind;
use crate::metrics::{EvalMetrics, MsgStats};
use crate::trace::TraceEvent;
use axml_net::NetStats;
use axml_xml::ids::PeerId;
use std::collections::BTreeMap;

/// Live per-peer gauges and windows — one dashboard row.
#[derive(Debug, Clone, Default)]
pub struct PeerLive {
    /// Cross-peer messages this peer has sent.
    pub sent_messages: u64,
    /// Charged bytes this peer has sent.
    pub sent_bytes: u64,
    /// Cross-peer messages delivered to this peer.
    pub recv_messages: u64,
    /// Charged bytes delivered to this peer.
    pub recv_bytes: u64,
    /// Messages sent by this peer not yet delivered (in-flight gauge;
    /// returns to 0 at quiescence).
    pub inflight: u64,
    /// Continuation tasks scheduled on this peer (queue-depth proxy).
    pub tasks: u64,
    /// Send attempts from this peer the network dropped.
    pub drops: u64,
    /// Retries armed for sends from this peer.
    pub retries: u64,
    /// Failovers decided at this peer.
    pub failovers: u64,
    /// Latency of messages *delivered to* this peer (from the matching
    /// send's in-flight window).
    pub latency: LatencyHistogram,
    /// Bytes/s delivered to this peer over the sliding window.
    pub goodput: RateWindow,
    /// Per-kind traffic sent by this peer.
    pub by_kind: BTreeMap<MessageKind, MsgStats>,
}

/// Streaming aggregator over a [`TraceEvent`] stream.
///
/// Fold events in arrival order with [`LiveStats::fold`]; query gauges
/// any time; at stream end, [`LiveStats::reconcile`] against the run's
/// `EvalMetrics`/`NetStats` proves the stream was complete and the fold
/// correct.
#[derive(Debug, Clone, Default)]
pub struct LiveStats {
    events: u64,
    /// The counters the engine keeps too, folded from their events.
    metrics: EvalMetrics,
    delivered: BTreeMap<(PeerId, PeerId), MsgStats>,
    peers: BTreeMap<PeerId, PeerLive>,
    latency: LatencyHistogram,
    goodput_bytes: RateWindow,
    goodput_msgs: RateWindow,
    last_ms: f64,
}

impl LiveStats {
    /// A fresh aggregator; its goodput windows are
    /// [`crate::hist::DEFAULT_SLOTS`] slots of
    /// [`crate::hist::DEFAULT_SLOT_MS`] virtual milliseconds.
    pub fn new() -> Self {
        Self::default()
    }

    fn peer(&mut self, p: PeerId) -> &mut PeerLive {
        self.peers.entry(p).or_default()
    }

    fn touch_clock(&mut self, at_ms: f64) {
        if at_ms.is_finite() && at_ms > self.last_ms {
            self.last_ms = at_ms;
        }
    }

    /// Fold one event into the aggregate: its counters through
    /// [`EvalMetrics::fold`], the engine's own mapping, then the gauges,
    /// histograms and windows only a stream has.
    pub fn fold(&mut self, e: &TraceEvent) {
        self.events += 1;
        self.metrics.fold(e);
        match e {
            TraceEvent::Definition { at_ms, .. }
            | TraceEvent::Delegation { at_ms, .. }
            | TraceEvent::ServiceCall { at_ms, .. }
            | TraceEvent::SubscriptionDelta { at_ms, .. } => self.touch_clock(*at_ms),
            TraceEvent::MessageSent {
                from,
                to,
                kind,
                bytes,
                sent_ms,
                at_ms,
            } => {
                let flight_ms = at_ms - sent_ms;
                self.latency.record_ms(flight_ms);
                {
                    let s = self.peer(*from);
                    s.sent_messages += 1;
                    s.sent_bytes = s.sent_bytes.saturating_add(*bytes);
                    s.inflight += 1;
                    let sk = s.by_kind.entry(*kind).or_default();
                    sk.messages += 1;
                    sk.bytes = sk.bytes.saturating_add(*bytes);
                }
                self.peer(*to).latency.record_ms(flight_ms);
                self.touch_clock(*sent_ms);
            }
            TraceEvent::MessageDelivered {
                from,
                to,
                bytes,
                at_ms,
                ..
            } => {
                let d = self.delivered.entry((*from, *to)).or_default();
                d.messages += 1;
                d.bytes = d.bytes.saturating_add(*bytes);
                self.goodput_bytes.record(*at_ms, *bytes);
                self.goodput_msgs.record(*at_ms, 1);
                {
                    let s = self.peer(*from);
                    s.inflight = s.inflight.saturating_sub(1);
                }
                let r = self.peer(*to);
                r.recv_messages += 1;
                r.recv_bytes = r.recv_bytes.saturating_add(*bytes);
                r.goodput.record(*at_ms, *bytes);
                self.touch_clock(*at_ms);
            }
            TraceEvent::TaskScheduled { peer, at_ms, .. } => {
                self.peer(*peer).tasks += 1;
                self.touch_clock(*at_ms);
            }
            TraceEvent::RuleAttempted { .. } | TraceEvent::PlanChosen { .. } => {}
            TraceEvent::MessageDropped { from, at_ms, .. } => {
                self.peer(*from).drops += 1;
                self.touch_clock(*at_ms);
            }
            TraceEvent::RetryScheduled { from, at_ms, .. } => {
                self.peer(*from).retries += 1;
                self.touch_clock(*at_ms);
            }
            TraceEvent::Failover { peer, at_ms, .. } => {
                self.peer(*peer).failovers += 1;
                self.touch_clock(*at_ms);
            }
        }
    }

    /// Events folded so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Latest virtual timestamp observed on any event.
    pub fn last_ms(&self) -> f64 {
        self.last_ms
    }

    /// Global latency histogram over every traced message's in-flight
    /// window.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Sliding bytes-delivered window (goodput, bytes/s of virtual time).
    pub fn goodput_bytes(&self) -> &RateWindow {
        &self.goodput_bytes
    }

    /// Sliding deliveries window (deliveries/s of virtual time).
    pub fn goodput_msgs(&self) -> &RateWindow {
        &self.goodput_msgs
    }

    /// Per-peer rows, in peer-id order.
    pub fn peers(&self) -> impl Iterator<Item = (PeerId, &PeerLive)> + '_ {
        self.peers.iter().map(|(&p, row)| (p, row))
    }

    /// The counters the engine keeps too — definitions, rules, traffic
    /// by kind and link, drops, retries, failovers — as folded from
    /// their events so far.
    pub fn metrics(&self) -> &EvalMetrics {
        &self.metrics
    }

    /// Messages sent but not yet delivered, across all peers.
    pub fn inflight(&self) -> u64 {
        self.peers.values().map(|p| p.inflight).sum()
    }

    /// Check the stream-equals-batch claim: every counter that has a
    /// paired event emission must agree exactly with `metrics`, the
    /// per-link send/drop ledgers must agree with `stats`, every sent
    /// message must have been delivered (quiescent stream), and the
    /// goodput windows must conserve bytes. Returns the first
    /// divergence as a message, `Ok(())` if the fold reconciles.
    ///
    /// Counters with *no* event emission (`seq_steps`, `explored`,
    /// `memo_hits`) are deliberately out of scope — they are not
    /// derivable from any trace.
    pub fn reconcile(&self, metrics: &EvalMetrics, stats: &NetStats) -> Result<(), String> {
        fn same<T: PartialEq + std::fmt::Debug>(
            what: &str,
            ours: T,
            theirs: T,
        ) -> Result<(), String> {
            if ours == theirs {
                return Ok(());
            }
            Err(format!("{what}: stream {ours:?} != batch {theirs:?}"))
        }
        let ours = &self.metrics;
        same("definitions", ours.defs(), metrics.defs())?;
        same("delegations", ours.delegations, metrics.delegations)?;
        same("service_calls", ours.service_calls, metrics.service_calls)?;
        same(
            "deltas",
            (ours.delta_fresh, ours.delta_suppressed),
            (metrics.delta_fresh, metrics.delta_suppressed),
        )?;
        same("retries", ours.retries, metrics.retries)?;
        same("failovers", ours.failovers, metrics.failovers)?;
        same(
            "rules",
            ours.rules().collect::<Vec<_>>(),
            metrics.rules().collect(),
        )?;
        same(
            "by_kind",
            ours.messages_by_kind().collect::<Vec<_>>(),
            metrics.messages_by_kind().collect(),
        )?;
        let sent: Vec<_> = ours.per_link().collect();
        same(
            "per_link (vs metrics)",
            &sent,
            &metrics.per_link().collect(),
        )?;
        if !ours.reconciles_with(stats) {
            return Err(format!(
                "per-link sends or drops: stream {sent:?} / {:?} != net {:?} / {:?}",
                ours.dropped_links().collect::<Vec<_>>(),
                stats.links().collect::<Vec<_>>(),
                stats.dropped_links().collect::<Vec<_>>()
            ));
        }
        // Quiescence: every traced send has its matching delivery.
        let delivered: Vec<_> = self
            .delivered
            .iter()
            .map(|(&(a, b), &s)| (a, b, s))
            .collect();
        same("sent vs delivered", &sent, &delivered)?;
        if self.inflight() != 0 {
            return Err(format!("{} messages still in flight", self.inflight()));
        }
        // Goodput byte conservation: windows never lose a byte, and the
        // delivered total is exactly the wire total.
        if !self.goodput_bytes.conserves() || !self.goodput_msgs.conserves() {
            return Err("goodput window leaked amounts".into());
        }
        same(
            "goodput bytes",
            self.goodput_bytes.total(),
            stats.total_bytes(),
        )?;
        // The virtual clock only moves forward: no event can postdate
        // the network's makespan (local deliveries advance the makespan
        // without being traced, so `<=`, not `==`).
        if self.last_ms > stats.makespan_ms() {
            return Err(format!(
                "last event time: stream {:?} > batch {:?}",
                self.last_ms,
                stats.makespan_ms()
            ));
        }
        Ok(())
    }

    /// `true` when [`LiveStats::reconcile`] passes.
    pub fn reconciles_with(&self, metrics: &EvalMetrics, stats: &NetStats) -> bool {
        self.reconcile(metrics, stats).is_ok()
    }
}

/// A [`TraceSink`](crate::trace::TraceSink) that folds each event into
/// a shared [`LiveStats`] as it is recorded — O(1) memory regardless of
/// stream length, where a `VecSink` would buffer every event.
///
/// At EDOS scale (10⁵ peers, ~10⁶ wire events per experiment row) this
/// is the only sane way to get latency quantiles and goodput out of a
/// run: keep a clone, hand the other to the system, and read the
/// aggregator after quiescence.
///
/// ```
/// use axml_obs::{LiveSink, Obs};
/// let sink = LiveSink::new();
/// let mut obs = Obs::new();
/// obs.set_sink(Box::new(sink.clone()));
/// // ... run something that emits ...
/// assert!(sink.stats().events() == 0 || sink.stats().last_ms() >= 0.0);
/// ```
#[derive(Clone, Default)]
pub struct LiveSink {
    live: std::rc::Rc<std::cell::RefCell<LiveStats>>,
}

impl LiveSink {
    /// A sink folding into a fresh [`LiveStats`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the aggregator so far.
    pub fn stats(&self) -> LiveStats {
        self.live.borrow().clone()
    }
}

impl crate::trace::TraceSink for LiveSink {
    fn record(&mut self, event: TraceEvent) {
        self.live.borrow_mut().fold(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::DataTag;
    use crate::trace::tests::{def, one_of_each};

    #[test]
    fn folds_every_event_kind_without_panicking() {
        let mut live = LiveStats::new();
        for e in one_of_each() {
            live.fold(&e);
        }
        assert_eq!(live.events(), one_of_each().len() as u64);
        assert!(live.last_ms() > 0.0);
    }

    #[test]
    fn live_sink_folds_like_a_direct_fold() {
        use crate::trace::TraceSink;
        let sink = LiveSink::new();
        let mut handle = sink.clone();
        let mut direct = LiveStats::new();
        for e in one_of_each() {
            handle.record(e.clone());
            direct.fold(&e);
        }
        let folded = sink.stats();
        assert_eq!(folded.events(), direct.events());
        assert_eq!(
            folded.metrics().total_messages(),
            direct.metrics().total_messages()
        );
        assert_eq!(
            folded.metrics().total_bytes(),
            direct.metrics().total_bytes()
        );
        assert_eq!(folded.last_ms(), direct.last_ms());
    }

    #[test]
    fn sent_and_delivered_balance_inflight() {
        let mut live = LiveStats::new();
        let kind = MessageKind::Data(DataTag::Send);
        live.fold(&TraceEvent::MessageSent {
            from: PeerId(0),
            to: PeerId(1),
            kind,
            bytes: 100,
            sent_ms: 1.0,
            at_ms: 5.0,
        });
        assert_eq!(live.inflight(), 1);
        let sender = live.peers().next().unwrap();
        assert_eq!((sender.0, sender.1.sent_messages), (PeerId(0), 1));
        live.fold(&TraceEvent::MessageDelivered {
            from: PeerId(0),
            to: PeerId(1),
            kind,
            bytes: 100,
            at_ms: 5.0,
        });
        assert_eq!(live.inflight(), 0);
        let (_, p1) = live.peers().find(|(p, _)| *p == PeerId(1)).unwrap();
        assert_eq!(p1.recv_bytes, 100);
        assert_eq!(p1.latency.count(), 1);
        assert_eq!(p1.latency.max_ms(), 4.0, "in-flight window is 4 ms");
        assert_eq!(live.goodput_bytes().total(), 100);
    }

    #[test]
    fn reconciles_with_a_hand_built_run() {
        let kind = MessageKind::Invoke;
        let mut live = LiveStats::new();
        let mut m = EvalMetrics::new();
        let mut s = NetStats::new();
        // one definition, one drop+retry, one message sent+delivered
        let run = [
            TraceEvent::Definition {
                def: 6,
                peer: PeerId(0),
                expr: "sc".into(),
                at_ms: 0.5,
            },
            TraceEvent::MessageDropped {
                from: PeerId(0),
                to: PeerId(1),
                kind,
                bytes: 64,
                at_ms: 1.0,
            },
            TraceEvent::RetryScheduled {
                from: PeerId(0),
                to: PeerId(1),
                kind,
                attempt: 1,
                backoff_ms: 2.0,
                at_ms: 1.0,
            },
            TraceEvent::MessageSent {
                from: PeerId(0),
                to: PeerId(1),
                kind,
                bytes: 64,
                sent_ms: 3.0,
                at_ms: 7.0,
            },
            TraceEvent::MessageDelivered {
                from: PeerId(0),
                to: PeerId(1),
                kind,
                bytes: 64,
                at_ms: 7.0,
            },
        ];
        for e in &run {
            m.fold(e);
            live.fold(e);
        }
        s.record_drop(PeerId(0), PeerId(1));
        s.record(PeerId(0), PeerId(1), 64, 4.0, 7.0);
        live.reconcile(&m, &s).unwrap();
        assert!(live.reconciles_with(&m, &s));
    }

    #[test]
    fn divergence_is_reported_not_masked() {
        let mut live = LiveStats::new();
        let mut m = EvalMetrics::new();
        let s = NetStats::new();
        m.fold(&def(1));
        let err = live.reconcile(&m, &s).unwrap_err();
        assert!(err.contains("definitions"), "{err}");
        live.fold(&def(1));
        live.reconcile(&m, &s).unwrap();
        // an undelivered send breaks quiescence
        live.fold(&TraceEvent::MessageSent {
            from: PeerId(0),
            to: PeerId(1),
            kind: MessageKind::Request,
            bytes: 8,
            sent_ms: 0.0,
            at_ms: 1.0,
        });
        assert!(!live.reconciles_with(&m, &s));
    }
}
