#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! # axml-obs — observability for distributed AXML evaluation
//!
//! The paper's contribution is an algebra whose value is only visible
//! through *measurement*: rules (10)–(16) are validated by comparing the
//! traffic and makespan of equivalent plans. This crate is the
//! instrumentation layer that makes those comparisons precise:
//!
//! * [`trace::TraceEvent`] — a structured event stream (definition
//!   fired, rule attempted, message sent, subscription delta shipped)
//!   streamed to a [`trace::TraceSink`]. A counted occurrence is
//!   recorded once, [`Obs::record`]: its event is folded into the
//!   metrics and then handed to the sink, if one is attached. The kinds
//!   no counter reads go through [`Obs::emit`], whose closure runs only
//!   when a sink is attached.
//! * [`metrics::EvalMetrics`] — always-on cheap counters: expressions
//!   evaluated per paper definition (1)–(9), rewrite-rule applications
//!   attempted/accepted per rule, optimizer candidates and memo hits,
//!   continuous-delta suppression, and a per-kind/per-link message
//!   breakdown that reconciles *exactly* with [`axml_net::NetStats`].
//!   Every counter that has an event is the fold of that event
//!   ([`metrics::EvalMetrics::fold`], the one mapping from events to
//!   counters).
//! * [`report::RunReport`] — a human-readable + JSON summary combining
//!   both with the network statistics, emitted by the experiment
//!   harness and the examples.
//!
//! See `OBSERVABILITY.md` at the repository root for a guided tour.

//! For out-of-process analysis, [`sink::BinSink`] streams events in the
//! one trace encoding, the `AXTR` record format [`codec`] defines, to a
//! file ([`sink::BinSink::create`]) or a TCP consumer
//! ([`sink::BinSink::connect`]), on the recording thread: no thread runs
//! in this crate. [`reader::TraceReader`] decodes a trace back into
//! [`trace::TraceEvent`]s.
//!
//! For *live* observability, [`reader::FollowReader`] tails a growing
//! file or socket incrementally, and [`live::LiveStats`] folds the event
//! stream into rolling latency histograms ([`hist`]), goodput windows
//! and per-peer gauges, and its counters through the same
//! [`metrics::EvalMetrics::fold`] — so they equal the run's when the
//! stream is complete.

pub mod codec;
pub mod hist;
pub mod json;
pub mod kind;
pub mod live;
pub mod mem;
pub mod metrics;
pub mod reader;
pub mod report;
pub mod sink;
pub mod trace;

pub use hist::{LatencyHistogram, RateWindow};
pub use kind::{DataTag, MessageKind};
pub use live::{LiveSink, LiveStats, PeerLive};
pub use mem::MemStats;
pub use metrics::{EvalMetrics, MsgStats, RuleStats};
pub use reader::{FollowReader, FollowStep, ReadError, TraceReader};
pub use report::RunReport;
pub use sink::{BinSink, FanoutSink, SharedBuf};
pub use trace::{TraceEvent, TraceSink, TraceStr, VecSink};

/// The observability handle: metrics plus an optional trace sink.
///
/// Embedded in `AxmlSystem` (one per system) and passed to the optimizer
/// explicitly. [`Obs::record`] counts an event and streams it;
/// [`Obs::emit`] takes a closure so that building an event no counter
/// reads happens only when a sink is attached.
#[derive(Default)]
pub struct Obs {
    /// Cumulative counters (always on): the fold of every recorded
    /// event, plus the few counters no event carries.
    pub metrics: EvalMetrics,
    sink: Option<Box<dyn TraceSink>>,
    /// The first flush that failed since the sink was last detached,
    /// answered by [`Obs::clear_sink`].
    failed: Option<std::io::Error>,
}

impl Obs {
    /// A fresh handle with no sink and zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a trace sink; subsequent events stream into it. Returns
    /// the previously attached sink, if any.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) -> Option<Box<dyn TraceSink>> {
        self.sink.replace(sink)
    }

    /// Detach the current sink (events are then only counted). The sink
    /// is flushed first — per the [`TraceSink`] contract, no buffered
    /// tail event is lost by detaching — and then dropped. The answer is
    /// the first flush that failed since the last detach, this one
    /// included — a file sink's deferred write error, a socket consumer
    /// that left — even when a later flush succeeded: events lost then
    /// stay lost. With no sink attached and no failure kept, `Ok`.
    pub fn clear_sink(&mut self) -> std::io::Result<()> {
        let last = match self.sink.take() {
            Some(mut sink) => sink.flush(),
            None => Ok(()),
        };
        match self.failed.take() {
            Some(first) => Err(first),
            None => last,
        }
    }

    /// Flush the attached sink, if any (see [`TraceSink::flush`]). The
    /// first failure is also kept for [`Obs::clear_sink`], so a caller
    /// that ignores this answer — the engine at a quiescence point —
    /// loses nothing.
    pub fn flush(&mut self) -> std::io::Result<()> {
        let r = match self.sink.as_mut() {
            Some(sink) => sink.flush(),
            None => Ok(()),
        };
        if let Err(e) = &r {
            self.failed
                .get_or_insert_with(|| std::io::Error::new(e.kind(), e.to_string()));
        }
        r
    }

    /// Whether a sink is attached.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Record one counted occurrence: fold `event` into [`Obs::metrics`]
    /// ([`EvalMetrics::fold`]), then hand it to the sink, if one is
    /// attached. The event is built whether or not a sink is — the
    /// counters read it.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        self.metrics.fold(&event);
        if let Some(sink) = self.sink.as_mut() {
            sink.record(event);
        }
    }

    /// Stream an event no counter reads (`TaskScheduled`,
    /// `MessageDelivered`, `PlanChosen`). `build` runs only if a sink is
    /// attached, so the disabled path costs a single branch.
    #[inline]
    pub fn emit(&mut self, build: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record(build());
        }
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("metrics", &self.metrics)
            .field("sink", &self.sink.as_ref().map(|_| "attached"))
            .field("failed", &self.failed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_xml::ids::PeerId;

    #[test]
    fn emit_is_lazy_without_sink() {
        let mut obs = Obs::new();
        let mut built = false;
        obs.emit(|| {
            built = true;
            TraceEvent::Definition {
                def: 1,
                peer: PeerId(0),
                expr: "tree".into(),
                at_ms: 0.0,
            }
        });
        assert!(!built, "closure must not run with no sink attached");
        assert!(!obs.enabled());
    }

    #[test]
    fn emit_streams_into_sink() {
        let mut obs = Obs::new();
        let sink = VecSink::new();
        assert!(obs.set_sink(Box::new(sink.clone())).is_none());
        assert!(obs.enabled());
        obs.emit(|| TraceEvent::Definition {
            def: 5,
            peer: PeerId(2),
            expr: "doc".into(),
            at_ms: 1.5,
        });
        assert_eq!(sink.len(), 1);
        obs.clear_sink().unwrap();
        obs.emit(|| unreachable!("sink detached"));
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn record_counts_with_and_without_a_sink() {
        let events = trace::tests::one_of_each();
        let mut bare = Obs::new();
        for e in &events {
            bare.record(e.clone());
        }
        assert_eq!(bare.metrics.def_count(6), 1);
        assert_eq!(bare.metrics.total_messages(), 1);
        assert_eq!(bare.metrics.rule("R11-push-select").accepted, 1);
        assert_eq!((bare.metrics.service_calls, bare.metrics.retries), (1, 1));
        let mut traced = Obs::new();
        let sink = VecSink::new();
        traced.set_sink(Box::new(sink.clone()));
        for e in &events {
            traced.record(e.clone());
        }
        assert_eq!(sink.take(), events, "each event arrives exactly once");
        assert_eq!(traced.metrics.to_json(), bare.metrics.to_json());
    }

    #[test]
    fn clear_sink_flushes_first() {
        struct CountingSink {
            flushes: std::rc::Rc<std::cell::Cell<u32>>,
        }
        impl TraceSink for CountingSink {
            fn record(&mut self, _: TraceEvent) {}
            fn flush(&mut self) -> std::io::Result<()> {
                self.flushes.set(self.flushes.get() + 1);
                Ok(())
            }
        }
        let flushes = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut obs = Obs::new();
        obs.set_sink(Box::new(CountingSink {
            flushes: flushes.clone(),
        }));
        assert_eq!(flushes.get(), 0);
        obs.flush().unwrap();
        assert_eq!(flushes.get(), 1);
        obs.clear_sink().unwrap();
        assert_eq!(flushes.get(), 2, "detach must flush");
        assert!(obs.flush().is_ok(), "flush with no sink is a no-op");
        assert!(obs.clear_sink().is_ok(), "detach with no sink is a no-op");
    }

    #[test]
    fn clear_sink_reports_a_failed_flush() {
        struct BrokenSink;
        impl TraceSink for BrokenSink {
            fn record(&mut self, _: TraceEvent) {}
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
        }
        let mut obs = Obs::new();
        obs.set_sink(Box::new(BrokenSink));
        let err = obs.clear_sink().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        assert!(!obs.enabled(), "a failed sink is detached all the same");
    }

    /// A sink whose first flush fails and whose later ones succeed.
    struct FailsOnce(bool);

    impl TraceSink for FailsOnce {
        fn record(&mut self, _: TraceEvent) {}
        fn flush(&mut self) -> std::io::Result<()> {
            if std::mem::replace(&mut self.0, true) {
                Ok(())
            } else {
                Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"))
            }
        }
    }

    #[test]
    fn clear_sink_reports_the_first_failed_flush() {
        let mut obs = Obs::new();
        obs.set_sink(Box::new(FailsOnce(false)));
        assert!(obs.flush().is_err());
        assert!(obs.flush().is_ok(), "the sink recovered");
        let err = obs.clear_sink().unwrap_err();
        assert_eq!(
            (err.kind(), err.to_string()),
            (std::io::ErrorKind::BrokenPipe, "gone".into())
        );
        assert!(obs.clear_sink().is_ok(), "the failure is answered once");
    }
}
