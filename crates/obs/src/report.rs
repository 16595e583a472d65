//! Run reports: one summary object per evaluated plan or experiment,
//! renderable as aligned human-readable text (`Display`) or compact
//! JSON ([`RunReport::to_json`]).
//!
//! A report is a *snapshot*: construct it after the run with
//! [`RunReport::new`] and the metrics/stats of that moment are copied
//! in, including a `reconciled` flag recording whether the metrics
//! layer and the network layer agreed message-for-message and
//! byte-for-byte.

use crate::json::{array, JsonObject};
use crate::mem::MemStats;
use crate::metrics::EvalMetrics;
use axml_net::{NetStats, SchedStats};
use axml_xml::stats::CopyStats;

/// A snapshot summary of one run: evaluation metrics + network stats.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Report title (experiment id, example name, …).
    pub title: String,
    /// The metrics snapshot.
    pub metrics: EvalMetrics,
    /// The network-statistics snapshot.
    pub stats: NetStats,
    /// Whether, at snapshot time, `metrics`' per-link counters matched
    /// `stats` exactly *and* the matcher counters satisfied their own
    /// invariant ([`EvalMetrics::matcher_consistent`]).
    pub reconciled: bool,
    /// Zero-copy substrate accounting for the run, when the harness
    /// measured it (a [`CopyStats::delta_since`] spanning the run).
    /// `None` by default: the counters are process-wide, so a system
    /// cannot attribute them to itself — the measuring harness attaches
    /// the delta explicitly via [`RunReport::with_copy`]. Rendered as
    /// `"copy":null` in JSON when absent, keeping reports of
    /// otherwise identical runs byte-comparable.
    pub copy: Option<CopyStats>,
    /// The event scheduler's ledger for the run, attached via
    /// [`RunReport::with_sched`]. The push/pop/clear counters are a
    /// function of the message sequence alone. `"sched":null` in JSON
    /// when absent.
    pub sched: Option<SchedStats>,
    /// Memory snapshot (peak RSS + interner pressure), attached via
    /// [`RunReport::with_mem`]. Strictly opt-in: RSS is process-wide
    /// and monotone, so attaching it breaks byte-comparability between
    /// otherwise identical runs. `"mem":null` in JSON when absent.
    pub mem: Option<MemStats>,
}

impl RunReport {
    /// Snapshot `metrics` and `stats` under `title`.
    pub fn new(title: impl Into<String>, metrics: &EvalMetrics, stats: &NetStats) -> Self {
        Self {
            title: title.into(),
            metrics: metrics.clone(),
            stats: stats.clone(),
            reconciled: metrics.reconciles_with(stats) && metrics.matcher_consistent(),
            copy: None,
            sched: None,
            mem: None,
        }
    }

    /// Attach a measured copy/share delta (builder style).
    pub fn with_copy(mut self, copy: CopyStats) -> Self {
        self.copy = Some(copy);
        self
    }

    /// Attach the scheduler ledger (builder style). The ledger's own
    /// invariant — every scheduled event is delivered, cleared or still
    /// pending ([`SchedStats::consistent`]) — is folded into
    /// `reconciled`, so a leaky scheduler flags the whole report.
    pub fn with_sched(mut self, sched: SchedStats) -> Self {
        self.reconciled = self.reconciled && sched.consistent();
        self.sched = Some(sched);
        self
    }

    /// Attach a memory snapshot (builder style).
    pub fn with_mem(mut self, mem: MemStats) -> Self {
        self.mem = Some(mem);
        self
    }

    /// The report as a compact JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str("title", &self.title);
        o.bool("reconciled", self.reconciled);
        o.raw("metrics", &self.metrics.to_json());
        match &self.copy {
            None => o.raw("copy", "null"),
            Some(c) => {
                let mut e = JsonObject::new();
                e.num_u64("bytes_copied", c.bytes_copied)
                    .num_u64("nodes_copied", c.nodes_copied)
                    .num_u64("bytes_shared", c.bytes_shared)
                    .num_u64("nodes_shared", c.nodes_shared)
                    .num_u64("cow_materializations", c.cow_materializations)
                    .num_u64("handle_shares", c.handle_shares);
                o.raw("copy", &e.finish())
            }
        };
        match &self.sched {
            None => o.raw("sched", "null"),
            Some(s) => {
                let mut e = JsonObject::new();
                e.num_u64("scheduled", s.scheduled)
                    .num_u64("delivered", s.delivered)
                    .num_u64("cleared", s.cleared)
                    .num_u64("pending", s.pending)
                    .num_u64("peak_pending", s.peak_pending);
                o.raw("sched", &e.finish())
            }
        };
        match &self.mem {
            None => o.raw("mem", "null"),
            Some(m) => {
                let mut e = JsonObject::new();
                e.num_u64("peak_rss_bytes", m.peak_rss_bytes)
                    .num_u64("current_rss_bytes", m.current_rss_bytes)
                    .num_u64("interner_symbols", m.interner_symbols)
                    .num_u64("interner_bytes", m.interner_bytes);
                o.raw("mem", &e.finish())
            }
        };
        let mut net = JsonObject::new();
        net.num_u64("messages", self.stats.total_messages())
            .num_u64("bytes", self.stats.total_bytes())
            .num_u64("dropped", self.stats.total_dropped())
            .num("makespan_ms", self.stats.makespan_ms())
            .num("weighted_cost_ms", self.stats.weighted_cost_ms());
        let peers = array(self.stats.per_peer().into_iter().map(|(p, t)| {
            let mut e = JsonObject::new();
            e.num("peer", p.0 as f64)
                .num_u64("sent_messages", t.sent_messages)
                .num_u64("sent_bytes", t.sent_bytes)
                .num_u64("recv_messages", t.recv_messages)
                .num_u64("recv_bytes", t.recv_bytes);
            e.finish()
        }));
        net.raw("per_peer", &peers);
        o.raw("net", &net.finish());
        o.finish()
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = &self.metrics;
        writeln!(f, "=== {} ===", self.title)?;
        writeln!(
            f,
            "network    : {} msgs, {} bytes, makespan {:.2} ms, weighted cost {:.2} ms",
            self.stats.total_messages(),
            self.stats.total_bytes(),
            self.stats.makespan_ms(),
            self.stats.weighted_cost_ms(),
        )?;
        writeln!(
            f,
            "reconciled : {}",
            if self.reconciled {
                "yes (metrics == net stats)"
            } else {
                "NO — counters diverged"
            }
        )?;
        let defs = m.defs();
        if !defs.is_empty() {
            write!(f, "definitions:")?;
            for (d, n) in defs {
                write!(f, " ({d})x{n}")?;
            }
            writeln!(f)?;
        }
        if m.delegations + m.seq_steps + m.service_calls > 0 {
            writeln!(
                f,
                "plan shapes: {} delegations, {} seq steps, {} service calls ({} reused)",
                m.delegations, m.seq_steps, m.service_calls, m.service_reuses
            )?;
        }
        let rules: Vec<_> = m.rules().collect();
        if !rules.is_empty() {
            writeln!(f, "rewrites   : {} candidates explored", m.explored)?;
            for (name, r) in rules {
                writeln!(
                    f,
                    "  {name:<24} {:>5} attempted {:>5} accepted",
                    r.attempted, r.accepted
                )?;
            }
            if let Some(rate) = m.memo_hit_rate() {
                writeln!(
                    f,
                    "  memo: {} hits / {} misses ({:.1}% hit rate)",
                    m.memo_hits,
                    m.explored,
                    rate * 100.0
                )?;
            }
        }
        if let Some(rate) = m.delta_suppression_rate() {
            writeln!(
                f,
                "deltas     : {} fresh, {} suppressed ({:.1}% suppression)",
                m.delta_fresh,
                m.delta_suppressed,
                rate * 100.0
            )?;
        }
        if let Some(rate) = m.matcher_skip_rate() {
            writeln!(
                f,
                "matcher    : {} probed, {} hit, {} skipped ({:.1}% skipped)",
                m.matcher_probes,
                m.matcher_hits,
                m.matcher_skips,
                rate * 100.0
            )?;
        }
        if m.total_dropped() + m.retries + m.failovers > 0 {
            writeln!(
                f,
                "faults     : {} dropped, {} retries, {} failovers",
                m.total_dropped(),
                m.retries,
                m.failovers
            )?;
        }
        if let Some(c) = &self.copy {
            writeln!(
                f,
                "zero-copy  : {} B copied ({} nodes), {} B shared ({} nodes), {} COW, {} handle shares",
                c.bytes_copied,
                c.nodes_copied,
                c.bytes_shared,
                c.nodes_shared,
                c.cow_materializations,
                c.handle_shares
            )?;
        }
        if let Some(s) = &self.sched {
            writeln!(
                f,
                "scheduler  : {} scheduled, {} delivered, {} cleared, {} pending (peak {})",
                s.scheduled, s.delivered, s.cleared, s.pending, s.peak_pending
            )?;
        }
        if let Some(mem) = &self.mem {
            writeln!(
                f,
                "memory     : peak RSS {:.1} MiB (now {:.1} MiB), interner {} symbols / {} B",
                mem.peak_rss_mb(),
                mem.current_rss_bytes as f64 / (1024.0 * 1024.0),
                mem.interner_symbols,
                mem.interner_bytes
            )?;
        }
        let kinds: Vec<_> = m.messages_by_kind().collect();
        if !kinds.is_empty() {
            writeln!(f, "messages by kind:")?;
            for (kind, s) in kinds {
                writeln!(
                    f,
                    "  {:<18} {:>5} msgs {:>10} bytes",
                    kind.as_str(),
                    s.messages,
                    s.bytes
                )?;
            }
        }
        let peers = self.stats.per_peer();
        if !peers.is_empty() {
            writeln!(f, "per peer:")?;
            for (p, t) in peers {
                writeln!(
                    f,
                    "  p{:<3} sent {:>5} msgs / {:>10} B   recv {:>5} msgs / {:>10} B",
                    p.0, t.sent_messages, t.sent_bytes, t.recv_messages, t.recv_bytes
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::{def, dropped, rule, sent};
    use axml_xml::ids::PeerId;

    fn sample() -> RunReport {
        let mut m = EvalMetrics::new();
        let mut s = NetStats::new();
        let fetch = crate::kind::MessageKind::Data(crate::kind::DataTag::Fetch);
        for e in [def(1), def(5), rule("R11-push-select", true)] {
            m.fold(&e);
        }
        m.fold(&sent(0, 1, fetch, 120));
        s.record(PeerId(0), PeerId(1), 120, 3.0, 3.0);
        RunReport::new("sample", &m, &s)
    }

    #[test]
    fn snapshot_reconciles() {
        let r = sample();
        assert!(r.reconciled);
        assert_eq!(r.metrics.total_bytes(), r.stats.total_bytes());
    }

    #[test]
    fn text_rendering() {
        let text = sample().to_string();
        assert!(text.contains("=== sample ==="), "{text}");
        assert!(text.contains("(1)x1 (5)x1"), "{text}");
        assert!(text.contains("R11-push-select"), "{text}");
        assert!(text.contains("reconciled : yes"), "{text}");
        assert!(text.contains("p0"), "{text}");
    }

    #[test]
    fn json_rendering() {
        let json = sample().to_json();
        assert!(json.contains("\"title\":\"sample\""), "{json}");
        assert!(json.contains("\"reconciled\":true"), "{json}");
        assert!(json.contains("\"per_peer\":[{\"peer\":0"), "{json}");
        assert!(json.contains("\"makespan_ms\":3"), "{json}");
    }

    #[test]
    fn adversarial_title_escapes_cleanly() {
        let m = EvalMetrics::new();
        let s = NetStats::new();
        let title = "E99 \"inject\"\n\u{1}\u{7f} — ünïcode 中 🦀";
        let r = RunReport::new(title, &m, &s);
        let json = r.to_json();
        let v = crate::json::parse(&json).expect("report JSON must parse");
        assert_eq!(v.get("title").unwrap().as_str().unwrap(), title);
        // No raw control characters may appear anywhere in the output.
        assert!(json.chars().all(|c| c >= ' '), "{json}");
    }

    #[test]
    fn divergence_is_flagged() {
        let m = EvalMetrics::new();
        let mut s = NetStats::new();
        s.record(PeerId(0), PeerId(1), 10, 1.0, 1.0);
        let r = RunReport::new("bad", &m, &s);
        assert!(!r.reconciled);
        assert!(r.to_string().contains("NO — counters diverged"));
    }

    #[test]
    fn fault_counters_render_when_present() {
        let mut m = EvalMetrics::new();
        let mut s = NetStats::new();
        s.record_drop(PeerId(0), PeerId(1));
        m.fold(&dropped(0, 1));
        m.retries = 2;
        m.failovers = 1;
        let r = RunReport::new("faulty", &m, &s);
        assert!(r.reconciled, "matched drop counters reconcile");
        let text = r.to_string();
        assert!(
            text.contains("faults     : 1 dropped, 2 retries, 1 failovers"),
            "{text}"
        );
        assert!(r.to_json().contains("\"dropped\":1"), "{}", r.to_json());
        // A drop the engine never observed breaks reconciliation.
        s.record_drop(PeerId(0), PeerId(1));
        assert!(!RunReport::new("bad", &m, &s).reconciled);
    }

    #[test]
    fn copy_stats_render_when_attached() {
        let base = sample();
        let json = base.to_json();
        assert!(json.contains("\"copy\":null"), "{json}");
        assert!(!base.to_string().contains("zero-copy"), "absent by default");
        let with = sample().with_copy(CopyStats {
            bytes_copied: 100,
            nodes_copied: 3,
            bytes_shared: 4096,
            nodes_shared: 128,
            cow_materializations: 2,
            handle_shares: 7,
        });
        let json = with.to_json();
        assert!(json.contains("\"copy\":{\"bytes_copied\":100"), "{json}");
        assert!(json.contains("\"handle_shares\":7"), "{json}");
        let text = with.to_string();
        assert!(
            text.contains("zero-copy  : 100 B copied (3 nodes), 4096 B shared (128 nodes), 2 COW, 7 handle shares"),
            "{text}"
        );
        // parity: two unattached reports stay byte-identical even though
        // the field exists (the engine determinism assertions rely on it)
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn sched_stats_render_and_gate_reconciliation() {
        let base = sample();
        let json = base.to_json();
        assert!(json.contains("\"sched\":null"), "{json}");
        assert!(json.contains("\"mem\":null"), "{json}");
        let good = SchedStats {
            scheduled: 10,
            delivered: 7,
            cleared: 2,
            pending: 1,
            cascades: 0,
            peak_pending: 4,
        };
        let r = sample().with_sched(good);
        assert!(r.reconciled, "a balanced ledger keeps the report green");
        let json = r.to_json();
        assert!(
            json.contains(
                "\"sched\":{\"scheduled\":10,\"delivered\":7,\"cleared\":2,\"pending\":1,\"peak_pending\":4}"
            ),
            "{json}"
        );
        let text = r.to_string();
        assert!(
            text.contains("scheduler  : 10 scheduled, 7 delivered, 2 cleared, 1 pending (peak 4)"),
            "{text}"
        );
        // A leaky ledger (scheduled != delivered + cleared + pending)
        // must flag the whole report.
        let mut leaky = good;
        leaky.delivered = 6;
        assert!(!sample().with_sched(leaky).reconciled);
    }

    #[test]
    fn mem_stats_render_when_attached() {
        let m = MemStats {
            peak_rss_bytes: 64 * 1024 * 1024,
            current_rss_bytes: 32 * 1024 * 1024,
            interner_symbols: 12,
            interner_bytes: 99,
        };
        let r = sample().with_mem(m);
        assert!(r.reconciled, "mem never affects reconciliation");
        let json = r.to_json();
        assert!(
            json.contains("\"mem\":{\"peak_rss_bytes\":67108864"),
            "{json}"
        );
        let text = r.to_string();
        assert!(
            text.contains(
                "memory     : peak RSS 64.0 MiB (now 32.0 MiB), interner 12 symbols / 99 B"
            ),
            "{text}"
        );
    }
}
