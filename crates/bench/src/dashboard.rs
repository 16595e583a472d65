//! The `axml-top` rendering engine: fold a trace stream into
//! [`LiveStats`] and draw per-peer rows with latency quantiles and
//! goodput sparklines.
//!
//! Rendering is split from the binary so it is testable and so the
//! `--once` snapshot mode can guarantee **byte-determinism**: the plain
//! rendering is a pure function of the folded event stream (no wall
//! clock, no locale, no terminal size probing), which is what lets
//! tier1.sh byte-compare two snapshots of the same trace.

use axml_obs::{FollowStep, LiveStats, TraceEvent};
use std::fmt::Write as _;

/// A dashboard: [`LiveStats`] plus stream-health counters.
#[derive(Debug, Default)]
pub struct Dashboard {
    /// The folded aggregate.
    pub live: LiveStats,
    /// Malformed records skipped (stream decoded past them).
    pub malformed: u64,
    /// Typed tail errors observed (truncation, I/O).
    pub tail_errors: u64,
}

impl Dashboard {
    /// An empty dashboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one decoded event.
    pub fn fold(&mut self, e: &TraceEvent) {
        self.live.fold(e);
    }

    /// Fold one follow-mode step; returns `true` if it was an event or
    /// a skippable malformed record (i.e. progress was made).
    pub fn fold_step(&mut self, step: &FollowStep) -> bool {
        match step {
            FollowStep::Event(e) => {
                self.fold(e);
                true
            }
            FollowStep::Malformed { .. } => {
                self.malformed += 1;
                true
            }
            FollowStep::Pending => false,
        }
    }

    /// The deterministic plain-text snapshot (no ANSI codes).
    pub fn render_plain(&self, source: &str) -> String {
        let l = &self.live;
        let m = l.metrics();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "axml-top — {source}: {} events, t={:.2} ms virtual, {} in flight",
            l.events(),
            l.last_ms(),
            l.inflight()
        );
        let h = l.latency();
        let _ = writeln!(
            out,
            "latency  : p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms  max {:.2} ms  (n={})",
            h.p50_ms(),
            h.p95_ms(),
            h.p99_ms(),
            h.max_ms(),
            h.count()
        );
        let _ = writeln!(
            out,
            "goodput  : {:.0} B/s  {:.1} deliveries/s  {}",
            l.goodput_bytes().rate_per_sec(),
            l.goodput_msgs().rate_per_sec(),
            l.goodput_bytes().sparkline()
        );
        if m.total_dropped() + m.retries + m.failovers > 0 {
            let _ = writeln!(
                out,
                "faults   : {} dropped, {} retries, {} failovers",
                m.total_dropped(),
                m.retries,
                m.failovers
            );
        }
        if self.malformed + self.tail_errors > 0 {
            let _ = writeln!(
                out,
                "stream   : {} malformed records skipped, {} tail errors",
                self.malformed, self.tail_errors
            );
        }
        let _ = writeln!(
            out,
            "{:<6} {:>10} {:>12} {:>10} {:>12} {:>5} {:>6} {:>5} {:>5} {:>3} {:>9} {:>9} {:>11}  goodput",
            "peer",
            "sent",
            "sentB",
            "recv",
            "recvB",
            "infl",
            "tasks",
            "drop",
            "rtry",
            "fo",
            "p50 ms",
            "p99 ms",
            "B/s",
        );
        for (p, row) in l.peers() {
            let _ = writeln!(
                out,
                "p{:<5} {:>10} {:>12} {:>10} {:>12} {:>5} {:>6} {:>5} {:>5} {:>3} {:>9.2} {:>9.2} {:>11.0}  {}",
                p.0,
                row.sent_messages,
                row.sent_bytes,
                row.recv_messages,
                row.recv_bytes,
                row.inflight,
                row.tasks,
                row.drops,
                row.retries,
                row.failovers,
                row.latency.p50_ms(),
                row.latency.p99_ms(),
                row.goodput.rate_per_sec(),
                row.goodput.sparkline()
            );
        }
        let kinds: Vec<_> = m.messages_by_kind().collect();
        if !kinds.is_empty() {
            let _ = write!(out, "kinds    :");
            for (k, s) in kinds {
                let _ = write!(out, " {}={}msg/{}B", k.as_str(), s.messages, s.bytes);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// The live-terminal rendering: clear screen + home, then the plain
    /// snapshot. Only the binary's follow/listen modes use this; `--once`
    /// sticks to [`Dashboard::render_plain`] so CI diffs stay clean.
    pub fn render_ansi(&self, source: &str) -> String {
        format!("\x1b[2J\x1b[H{}", self.render_plain(source))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{catalog, naive_apply, selective_query, two_peer};
    use axml_obs::VecSink;

    /// A small seeded run captured through a VecSink.
    fn traced_run() -> Vec<TraceEvent> {
        let sink = VecSink::new();
        let (mut sys, client, server) = two_peer(catalog(40, 0.1, 7));
        sys.set_trace_sink(Box::new(sink.clone()));
        let e = naive_apply(selective_query(), client, server);
        sys.eval(client, &e).unwrap();
        sys.flush_trace().unwrap();
        sink.events()
    }

    #[test]
    fn snapshot_is_deterministic() {
        let events = traced_run();
        assert!(!events.is_empty());
        let render = |evs: &[TraceEvent]| {
            let mut d = Dashboard::new();
            for e in evs {
                d.fold(e);
            }
            d.render_plain("test")
        };
        let a = render(&events);
        let b = render(&events);
        assert_eq!(a, b, "same stream must render byte-identically");
        assert!(a.contains("axml-top"), "{a}");
        assert!(a.contains("latency"), "{a}");
        assert!(a.contains("p0"), "{a}");
        assert!(!a.contains('\x1b'), "plain mode must carry no ANSI codes");
    }

    #[test]
    fn ansi_mode_wraps_the_same_snapshot() {
        let mut d = Dashboard::new();
        for e in traced_run() {
            d.fold(&e);
        }
        let plain = d.render_plain("x");
        let ansi = d.render_ansi("x");
        assert!(ansi.starts_with("\x1b[2J\x1b[H"));
        assert!(ansi.ends_with(&plain));
    }
}
