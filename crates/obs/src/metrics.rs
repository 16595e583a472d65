//! Per-phase evaluation metrics: cheap, always-on counters.
//!
//! Unlike a trace (off unless a sink is attached), metrics stay on
//! permanently — they are the numbers the experiment tables and
//! `RunReport`s are built from. A counter that has a
//! [`crate::trace`] event is the fold of that event
//! ([`EvalMetrics::fold`]), whether or not a sink streams it. The
//! message counters intentionally mirror
//! [`axml_net::NetStats`] semantics (local deliveries free, bytes =
//! payload + per-message link overhead) so the two can be reconciled
//! exactly; [`EvalMetrics::reconciles_with`] checks it.

use crate::json::{array, JsonObject};
use crate::kind::MessageKind;
use crate::trace::{TraceEvent, TraceStr};
use axml_net::NetStats;
use axml_xml::ids::PeerId;
use std::collections::BTreeMap;

/// Attempt/accept counters for one rewrite rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// Candidate plans this rule produced during search.
    pub attempted: u64,
    /// How many of them became the best plan so far.
    pub accepted: u64,
}

/// Message/byte counters for one message kind or link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MsgStats {
    /// Messages counted.
    pub messages: u64,
    /// Charged bytes (payload + per-message link overhead).
    pub bytes: u64,
}

/// Cumulative evaluation metrics for one `AxmlSystem` (or one optimizer
/// run, when passed standalone).
#[derive(Debug, Clone, Default)]
pub struct EvalMetrics {
    /// `defs[d]` = number of expression evaluations that fired paper
    /// definition `d` (index 0 unused).
    defs: [u64; 10],
    /// Delegated evaluations (`eval@p`, the rules (14)–(16) plan shape).
    pub delegations: u64,
    /// Sequence steps evaluated (`seq(e1, …, en)`).
    pub seq_steps: u64,
    /// Service activations (§2.2 step 1), one-shot and continuous.
    pub service_calls: u64,
    /// One-shot service calls whose provider reused an answer it kept
    /// at its current state instead of running the service body again.
    pub service_reuses: u64,
    /// Optimizer memo hits: candidates pruned because their fingerprint
    /// was already explored.
    pub memo_hits: u64,
    /// Optimizer candidates explored: each is one fingerprint seen for
    /// the first time (a memo miss) and one cost-model estimate, so this
    /// one counter is all three.
    pub explored: u64,
    /// Continuous-subscription results delivered (never seen before).
    pub delta_fresh: u64,
    /// Continuous-subscription results evaluated and found already
    /// delivered — work a full re-evaluation spent on re-deriving them.
    /// Pumps that evaluate only what a feed appended add nothing here.
    pub delta_suppressed: u64,
    /// Backoff retries the engine armed after failed send attempts.
    pub retries: u64,
    /// Generic-reference failovers: `@any` resolutions abandoned an
    /// unreachable replica and re-ran the pick.
    pub failovers: u64,
    /// Subscriptions considered by the shared matching index across all
    /// feeds (`matcher_probes == matcher_hits + matcher_skips` is an
    /// invariant; [`EvalMetrics::matcher_consistent`] checks it and
    /// [`crate::RunReport`] folds it into `reconciled`).
    pub matcher_probes: u64,
    /// Subscriptions the index reported as possibly changed (re-evaluated).
    pub matcher_hits: u64,
    /// Subscriptions the index proved untouched (evaluation skipped).
    pub matcher_skips: u64,
    /// Keyed by a [`TraceStr`] so a rule name decoded from a trace fits
    /// beside the engine's static ones.
    rules: BTreeMap<TraceStr, RuleStats>,
    by_kind: BTreeMap<MessageKind, MsgStats>,
    per_link: BTreeMap<(PeerId, PeerId), MsgStats>,
    /// Send attempts the engine observed being dropped by fault
    /// injection, per directed link — must mirror
    /// [`NetStats::dropped_links`] exactly (checked by
    /// [`EvalMetrics::reconciles_with`]).
    dropped: BTreeMap<(PeerId, PeerId), u64>,
}

impl EvalMetrics {
    /// Zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one event: the one mapping from trace events to counters.
    /// The engine records each counted occurrence through
    /// [`crate::Obs::record`], which calls this, and [`crate::LiveStats`]
    /// applies it to a decoded stream — so folding a complete trace lands
    /// on the engine's numbers. Local messages and drops (`from == to`)
    /// are free and ignored, matching [`NetStats`]; a definition number
    /// outside 1–9 (a decoded stream can carry any byte) is ignored too,
    /// and byte sums saturate rather than overflow.
    /// `TaskScheduled`, `MessageDelivered` and `PlanChosen` count nothing.
    /// Inlined, so that at an engine site, where the kind is known, only
    /// its arm is left.
    #[inline]
    pub fn fold(&mut self, e: &TraceEvent) {
        match e {
            TraceEvent::Definition { def, .. } => {
                if (1..=9).contains(def) {
                    self.defs[*def as usize] += 1;
                }
            }
            TraceEvent::Delegation { .. } => self.delegations += 1,
            TraceEvent::MessageSent {
                from,
                to,
                kind,
                bytes,
                ..
            } if from != to => {
                let k = self.by_kind.entry(*kind).or_default();
                k.messages += 1;
                k.bytes = k.bytes.saturating_add(*bytes);
                let l = self.per_link.entry((*from, *to)).or_default();
                l.messages += 1;
                l.bytes = l.bytes.saturating_add(*bytes);
            }
            TraceEvent::RuleAttempted { rule, accepted, .. } => {
                let r = self.rules.entry(rule.clone()).or_default();
                r.attempted += 1;
                r.accepted += *accepted as u64;
            }
            TraceEvent::ServiceCall { .. } => self.service_calls += 1,
            TraceEvent::SubscriptionDelta {
                fresh, suppressed, ..
            } => {
                self.delta_fresh += *fresh as u64;
                self.delta_suppressed += *suppressed as u64;
            }
            TraceEvent::MessageDropped { from, to, .. } if from != to => {
                *self.dropped.entry((*from, *to)).or_default() += 1;
            }
            TraceEvent::RetryScheduled { .. } => self.retries += 1,
            TraceEvent::Failover { .. } => self.failovers += 1,
            TraceEvent::MessageSent { .. }
            | TraceEvent::MessageDropped { .. }
            | TraceEvent::TaskScheduled { .. }
            | TraceEvent::MessageDelivered { .. }
            | TraceEvent::PlanChosen { .. } => {}
        }
    }

    /// Evaluations counted for definition `def`.
    pub fn def_count(&self, def: u8) -> u64 {
        self.defs.get(def as usize).copied().unwrap_or(0)
    }

    /// `(definition, count)` for all definitions with nonzero counts.
    pub fn defs(&self) -> Vec<(u8, u64)> {
        (1..=9u8)
            .filter_map(|d| {
                let n = self.defs[d as usize];
                (n > 0).then_some((d, n))
            })
            .collect()
    }

    /// Per-rule attempt/accept counters, in name order.
    pub fn rules(&self) -> impl Iterator<Item = (&str, RuleStats)> + '_ {
        self.rules.iter().map(|(k, &v)| (k.as_ref(), v))
    }

    /// Counters for one rule.
    pub fn rule(&self, name: &str) -> RuleStats {
        self.rules.get(name).copied().unwrap_or_default()
    }

    /// Dropped-attempt counters per directed link, in id order.
    pub fn dropped_links(&self) -> impl Iterator<Item = (PeerId, PeerId, u64)> + '_ {
        self.dropped.iter().map(|(&(a, b), &n)| (a, b, n))
    }

    /// Total send attempts observed dropped.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.values().sum()
    }

    /// Message counters by kind, in kind order.
    pub fn messages_by_kind(&self) -> impl Iterator<Item = (MessageKind, MsgStats)> + '_ {
        self.by_kind.iter().map(|(&k, &v)| (k, v))
    }

    /// Message counters per directed link, in id order.
    pub fn per_link(&self) -> impl Iterator<Item = (PeerId, PeerId, MsgStats)> + '_ {
        self.per_link.iter().map(|(&(a, b), &v)| (a, b, v))
    }

    /// Total messages counted.
    pub fn total_messages(&self) -> u64 {
        self.per_link.values().map(|s| s.messages).sum()
    }

    /// Total charged bytes counted.
    pub fn total_bytes(&self) -> u64 {
        self.per_link.values().map(|s| s.bytes).sum()
    }

    /// Optimizer memo hit rate in `[0, 1]` (`None` before any search).
    pub fn memo_hit_rate(&self) -> Option<f64> {
        let total = self.memo_hits + self.explored;
        (total > 0).then(|| self.memo_hits as f64 / total as f64)
    }

    /// Continuous-delta suppression rate in `[0, 1]` — the fraction of
    /// evaluated results that had already been delivered (`None` before
    /// any pump).
    pub fn delta_suppression_rate(&self) -> Option<f64> {
        let total = self.delta_fresh + self.delta_suppressed;
        (total > 0).then(|| self.delta_suppressed as f64 / total as f64)
    }

    /// Whether the per-link message/byte counters agree **exactly** with
    /// the network statistics — they must, whenever metrics and stats
    /// were reset together (both count payload + per-message overhead on
    /// every cross-peer transfer). Under fault injection the per-link
    /// *drop* counters must agree too: the network counts a drop the
    /// moment it loses an attempt, the engine when it observes the
    /// failure — same moment, same link.
    pub fn reconciles_with(&self, stats: &NetStats) -> bool {
        let theirs: Vec<(PeerId, PeerId, u64, u64)> = stats
            .links()
            .map(|(a, b, s)| (a, b, s.messages, s.bytes))
            .collect();
        let ours: Vec<(PeerId, PeerId, u64, u64)> = self
            .per_link()
            .map(|(a, b, s)| (a, b, s.messages, s.bytes))
            .collect();
        let their_drops: Vec<(PeerId, PeerId, u64)> = stats.dropped_links().collect();
        let our_drops: Vec<(PeerId, PeerId, u64)> = self.dropped_links().collect();
        theirs == ours && their_drops == our_drops
    }

    /// The shared-matcher accounting invariant: every subscription a
    /// probe considered was either reported (and re-evaluated) or
    /// skipped — `matcher_probes == matcher_hits + matcher_skips`. A
    /// divergence means feeds lost track of subscriptions and the
    /// multiplexing numbers can't be trusted.
    pub fn matcher_consistent(&self) -> bool {
        self.matcher_probes == self.matcher_hits + self.matcher_skips
    }

    /// Fraction of probed subscriptions the index kept from re-evaluating
    /// (`None` before any probe).
    pub fn matcher_skip_rate(&self) -> Option<f64> {
        (self.matcher_probes > 0).then(|| self.matcher_skips as f64 / self.matcher_probes as f64)
    }

    /// Merge another accumulator into this one (e.g. a search's counters
    /// counted apart from the run's). Merging is commutative and associative, and
    /// [`EvalMetrics::reconciles_with`] holds for the merged metrics
    /// whenever each part reconciled against its share of the traffic.
    pub fn merge(&mut self, other: &EvalMetrics) {
        for (d, n) in other.defs.iter().enumerate() {
            self.defs[d] += n;
        }
        self.delegations += other.delegations;
        self.seq_steps += other.seq_steps;
        self.service_calls += other.service_calls;
        self.service_reuses += other.service_reuses;
        self.memo_hits += other.memo_hits;
        self.explored += other.explored;
        self.delta_fresh += other.delta_fresh;
        self.delta_suppressed += other.delta_suppressed;
        self.retries += other.retries;
        self.failovers += other.failovers;
        self.matcher_probes += other.matcher_probes;
        self.matcher_hits += other.matcher_hits;
        self.matcher_skips += other.matcher_skips;
        for (&link, n) in &other.dropped {
            *self.dropped.entry(link).or_default() += n;
        }
        for (rule, r) in &other.rules {
            let e = self.rules.entry(rule.clone()).or_default();
            e.attempted += r.attempted;
            e.accepted += r.accepted;
        }
        for (&kind, m) in &other.by_kind {
            let e = self.by_kind.entry(kind).or_default();
            e.messages += m.messages;
            e.bytes += m.bytes;
        }
        for (&link, m) in &other.per_link {
            let e = self.per_link.entry(link).or_default();
            e.messages += m.messages;
            e.bytes += m.bytes;
        }
    }

    /// Zero every counter.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// The metrics as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        let defs = array(self.defs().into_iter().map(|(d, n)| {
            let mut e = JsonObject::new();
            e.num("def", d as f64).num_u64("count", n);
            e.finish()
        }));
        o.raw("definitions", &defs);
        o.num_u64("delegations", self.delegations);
        o.num_u64("seq_steps", self.seq_steps);
        o.num_u64("service_calls", self.service_calls);
        o.num_u64("service_reuses", self.service_reuses);
        let rules = array(self.rules().map(|(name, r)| {
            let mut e = JsonObject::new();
            e.str("rule", name)
                .num_u64("attempted", r.attempted)
                .num_u64("accepted", r.accepted);
            e.finish()
        }));
        o.raw("rules", &rules);
        o.num_u64("memo_hits", self.memo_hits);
        o.num_u64("explored", self.explored);
        o.num_u64("delta_fresh", self.delta_fresh);
        o.num_u64("delta_suppressed", self.delta_suppressed);
        o.num_u64("retries", self.retries);
        o.num_u64("failovers", self.failovers);
        o.num_u64("matcher_probes", self.matcher_probes);
        o.num_u64("matcher_hits", self.matcher_hits);
        o.num_u64("matcher_skips", self.matcher_skips);
        o.num_u64("dropped", self.total_dropped());
        let kinds = array(self.messages_by_kind().map(|(kind, m)| {
            let mut e = JsonObject::new();
            e.str("kind", kind.as_str())
                .num_u64("messages", m.messages)
                .num_u64("bytes", m.bytes);
            e.finish()
        }));
        o.raw("messages_by_kind", &kinds);
        let links = array(self.per_link().map(|(a, b, m)| {
            let mut e = JsonObject::new();
            e.num("from", a.0 as f64)
                .num("to", b.0 as f64)
                .num_u64("messages", m.messages)
                .num_u64("bytes", m.bytes);
            e.finish()
        }));
        o.raw("per_link", &links);
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::DataTag;
    use crate::trace::tests::{def, dropped, rule, sent};

    #[test]
    fn def_counters() {
        let mut m = EvalMetrics::new();
        m.fold(&def(1));
        m.fold(&def(5));
        m.fold(&def(5));
        m.fold(&def(0));
        m.fold(&def(10)); // out of range, as a decoded stream may carry
        assert_eq!(m.def_count(5), 2);
        assert_eq!(m.def_count(2), 0);
        assert_eq!(m.defs(), vec![(1, 1), (5, 2)]);
    }

    #[test]
    fn rule_counters() {
        let mut m = EvalMetrics::new();
        m.fold(&rule("R11-push-select", true));
        m.fold(&rule("R11-push-select", false));
        m.fold(&rule("R10-delegate", false));
        assert_eq!(
            m.rule("R11-push-select"),
            RuleStats {
                attempted: 2,
                accepted: 1
            }
        );
        let names: Vec<_> = m.rules().map(|(n, _)| n).collect();
        assert_eq!(names, ["R10-delegate", "R11-push-select"], "name order");
    }

    #[test]
    fn message_counters_skip_local() {
        let fetch = MessageKind::Data(DataTag::Fetch);
        let mut m = EvalMetrics::new();
        m.fold(&sent(0, 1, fetch, 100));
        m.fold(&sent(0, 1, fetch, 50));
        m.fold(&sent(2, 2, fetch, 999));
        assert_eq!(m.total_messages(), 2);
        assert_eq!(m.total_bytes(), 150);
        let kinds: Vec<_> = m.messages_by_kind().collect();
        assert_eq!(kinds.len(), 1);
        assert_eq!(kinds[0].1.bytes, 150);
    }

    #[test]
    fn reconciliation_against_netstats() {
        let mut m = EvalMetrics::new();
        let mut s = NetStats::new();
        m.fold(&sent(0, 1, MessageKind::Data(DataTag::Send), 128));
        s.record(PeerId(0), PeerId(1), 128, 1.0, 1.0);
        assert!(m.reconciles_with(&s));
        s.record(PeerId(1), PeerId(0), 64, 1.0, 2.0);
        assert!(!m.reconciles_with(&s), "diverged counters must not pass");
    }

    #[test]
    fn reconciliation_covers_drop_counters() {
        let mut m = EvalMetrics::new();
        let mut s = NetStats::new();
        s.record_drop(PeerId(0), PeerId(1));
        assert!(!m.reconciles_with(&s), "unobserved drop must not pass");
        m.fold(&dropped(0, 1));
        assert!(m.reconciles_with(&s));
        assert_eq!(m.total_dropped(), 1);
        m.fold(&dropped(2, 2)); // local: ignored
        assert!(m.reconciles_with(&s));
        m.fold(&dropped(0, 1));
        assert!(!m.reconciles_with(&s), "count mismatch must not pass");
    }

    #[test]
    fn rates() {
        let mut m = EvalMetrics::new();
        assert_eq!(m.memo_hit_rate(), None);
        assert_eq!(m.delta_suppression_rate(), None);
        m.memo_hits = 3;
        m.explored = 1;
        m.delta_fresh = 1;
        m.delta_suppressed = 3;
        assert_eq!(m.memo_hit_rate(), Some(0.75));
        assert_eq!(m.delta_suppression_rate(), Some(0.75));
    }

    #[test]
    fn matcher_invariant() {
        let mut m = EvalMetrics::new();
        assert!(m.matcher_consistent(), "zeroed metrics are consistent");
        assert_eq!(m.matcher_skip_rate(), None);
        m.matcher_probes = 10;
        m.matcher_hits = 3;
        m.matcher_skips = 7;
        assert!(m.matcher_consistent());
        assert_eq!(m.matcher_skip_rate(), Some(0.7));
        m.matcher_skips = 6;
        assert!(
            !m.matcher_consistent(),
            "a lost subscription must be caught"
        );
    }

    #[test]
    fn merge_is_per_worker_sum() {
        let send = MessageKind::Data(DataTag::Send);
        let mut a = EvalMetrics::new();
        a.fold(&def(2));
        a.fold(&rule("R10-delegate", true));
        a.fold(&sent(0, 1, send, 100));
        a.explored = 2;
        let mut b = EvalMetrics::new();
        b.fold(&def(2));
        b.fold(&def(7));
        b.fold(&rule("R10-delegate", false));
        b.fold(&sent(0, 1, send, 50));
        b.fold(&sent(1, 0, send, 10));
        b.memo_hits = 3;
        b.explored = 1;
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.def_count(2), 2);
        assert_eq!(merged.def_count(7), 1);
        assert_eq!(
            merged.rule("R10-delegate"),
            RuleStats {
                attempted: 2,
                accepted: 1
            }
        );
        assert_eq!(merged.total_messages(), 3);
        assert_eq!(merged.total_bytes(), 160);
        assert_eq!((merged.explored, merged.memo_hits), (3, 3));
        // merge is commutative: the barrier order of workers can't matter
        let mut flipped = b.clone();
        flipped.merge(&a);
        assert_eq!(merged.to_json(), flipped.to_json());
        // and reconciliation holds for the merged whole when each worker
        // reconciled against its share of the traffic
        let mut stats = NetStats::new();
        stats.record(PeerId(0), PeerId(1), 100, 1.0, 1.0);
        stats.record(PeerId(0), PeerId(1), 50, 1.0, 2.0);
        stats.record(PeerId(1), PeerId(0), 10, 1.0, 3.0);
        assert!(merged.reconciles_with(&stats));
    }

    #[test]
    fn reset_and_json() {
        let mut m = EvalMetrics::new();
        m.fold(&def(2));
        m.fold(&sent(0, 1, MessageKind::Data(DataTag::Send), 10));
        m.fold(&rule("R12-add-stop", false));
        let json = m.to_json();
        assert!(
            json.contains("\"definitions\":[{\"def\":2,\"count\":1}]"),
            "{json}"
        );
        assert!(json.contains("\"rule\":\"R12-add-stop\""), "{json}");
        m.reset();
        assert_eq!(m.total_messages(), 0);
        assert!(m.defs().is_empty());
    }
}
