//! Structured trace events and sinks.
//!
//! # Mapping events to the paper
//!
//! Each [`TraceEvent`] kind corresponds to a numbered construct of
//! *A Framework for Distributed XML Data Management* (EDBT 2006):
//!
//! | event | paper construct |
//! |-------|-----------------|
//! | [`TraceEvent::Definition`] with `def` 1–9 | evaluation definitions (1)–(9), §3.2: (1) local tree/doc, (2) local query application, (3) send to a peer, (4) send to a node list, (5) remote fetch, (6) service call, (7) remote-definition application, (8) query deployment, (9) `pickDoc`/`pickService` resolution of `@any` |
//! | [`TraceEvent::Delegation`] | `eval@p(…)` relocation — the plan shapes produced by rules (14)–(16), §3.3 |
//! | [`TraceEvent::RuleAttempted`] | one application of an equivalence rule (10)–(16) during optimizer search |
//! | [`TraceEvent::PlanChosen`] | the end of a §3.3 optimization: the winning rewrite chain |
//! | [`TraceEvent::MessageSent`] | a wire transfer charged by the cost model (any definition that moves data) |
//! | [`TraceEvent::MessageDelivered`] | the same transfer reaching its peer's mailbox — Σ's asynchronous message exchange, delivered in arrival-time order |
//! | [`TraceEvent::TaskScheduled`] | one continuation step of `eval@p(e)` entering a peer's ready queue (the engine's decomposition of definitions (1)–(9)) |
//! | [`TraceEvent::ServiceCall`] | §2.2 activation step 1 (parameters to the provider) |
//! | [`TraceEvent::SubscriptionDelta`] | §2.2 continuous services: steps 2–3 repeating, shipping only never-delivered results |
//! | [`TraceEvent::MessageDropped`] | a send attempt lost to seeded fault injection (the operational reading of an unreliable Σ) |
//! | [`TraceEvent::RetryScheduled`] | the engine arming a capped-backoff retry after a failed attempt |
//! | [`TraceEvent::Failover`] | a `@any` generic reference re-resolving away from an unreachable replica — the paper's equivalence classes as graceful degradation |
//!
//! Events carry the acting peer(s), the expression-node kind where
//! meaningful, and the simulated timestamp (`at_ms`, from the
//! discrete-event network clock). Optimizer events carry estimated
//! scalar cost instead of a timestamp — optimization is planning, not
//! simulated execution.

use crate::kind::MessageKind;
use axml_net::bytes::{Cursor, PutBytes};
use axml_xml::ids::PeerId;
use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// A name-like trace field: `&'static str` at emission time (the engine
/// only ever emits static names — zero allocation on the hot path), an
/// owned `String` when decoded back from a trace file.
pub type TraceStr = Cow<'static, str>;

/// One observed step of evaluation, optimization, or streaming.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An evaluation definition fired at a peer.
    Definition {
        /// Paper definition number, 1–9 (see module docs).
        def: u8,
        /// The evaluating peer.
        peer: PeerId,
        /// The expression-node kind ("tree", "doc", "apply", "send",
        /// "sc", "deploy", …).
        expr: TraceStr,
        /// Simulated time when evaluation of this node began.
        at_ms: f64,
    },
    /// A delegated evaluation (`eval@p`) — rules (14)–(16) plan shapes.
    Delegation {
        /// The delegating peer.
        from: PeerId,
        /// The peer evaluating the inner expression.
        to: PeerId,
        /// Simulated time at delegation.
        at_ms: f64,
    },
    /// A message entered a link (local deliveries are not traced, they
    /// are free — matching [`axml_net::NetStats`] semantics). Emitted at
    /// send time; `sent_ms` is the moment it left, `at_ms` the scheduled
    /// arrival — the `[sent_ms, at_ms]` window is the in-flight span
    /// timeline renderers draw.
    MessageSent {
        /// Sender.
        from: PeerId,
        /// Receiver.
        to: PeerId,
        /// Message kind: the `AxmlMessage` variant, refined by the data
        /// tag.
        kind: MessageKind,
        /// Charged bytes (payload + the link's per-message overhead) —
        /// identical to what [`axml_net::NetStats`] records.
        bytes: u64,
        /// Simulated time when the message entered the link.
        sent_ms: f64,
        /// Simulated (scheduled) arrival time.
        at_ms: f64,
    },
    /// A previously sent message reached the receiving peer's mailbox.
    /// Between the matching [`TraceEvent::MessageSent`] and this event
    /// the message was in flight — independent transfers overlap.
    MessageDelivered {
        /// Sender.
        from: PeerId,
        /// Receiver.
        to: PeerId,
        /// Message kind (same as the matching send).
        kind: MessageKind,
        /// Charged bytes (same as the matching send).
        bytes: u64,
        /// Simulated delivery time.
        at_ms: f64,
    },
    /// The engine put one continuation task on a peer's ready queue —
    /// one pending step of the definitions (1)–(9) decomposition.
    TaskScheduled {
        /// The peer that will run the task.
        peer: PeerId,
        /// Short task name ("eval", "apply-finish", "sc-finish", …).
        task: TraceStr,
        /// Simulated time at scheduling.
        at_ms: f64,
    },
    /// The optimizer tried one rewrite-rule application.
    RuleAttempted {
        /// Rule name (e.g. `"R11-push-select"`).
        rule: TraceStr,
        /// Whether the candidate became the new best plan.
        accepted: bool,
        /// The candidate's estimated scalar cost.
        cost: f64,
    },
    /// The optimizer finished a search, or reused the plan of one.
    PlanChosen {
        /// The evaluation site optimized for.
        site: PeerId,
        /// Candidates examined: 0 for a reused plan.
        explored: usize,
        /// Estimated scalar cost of the winner.
        cost: f64,
        /// The winning rewrite chain (paper rule names).
        trace: Vec<TraceStr>,
    },
    /// A service call activated (§2.2 step 1 / definition (6)).
    ServiceCall {
        /// The calling peer.
        caller: PeerId,
        /// The resolved provider.
        provider: PeerId,
        /// The resolved (concrete) service name, shared with the name the
        /// engine holds: recording a call copies no string.
        service: Arc<str>,
        /// Correlation id.
        call_id: u64,
        /// Simulated time at activation.
        at_ms: f64,
    },
    /// A continuous subscription was pumped and shipped its delta.
    SubscriptionDelta {
        /// Subscription id.
        subscription: u64,
        /// The provider that evaluated.
        provider: PeerId,
        /// Trees delivered (never seen before by this subscription).
        fresh: usize,
        /// Trees evaluated and found already delivered. A pump that
        /// evaluates only what a feed appended never evaluates them,
        /// and reports 0.
        suppressed: usize,
        /// Simulated time of the pump.
        at_ms: f64,
    },
    /// A send attempt was lost to the network's seeded fault plan. The
    /// network counted a drop but charged no bytes; the matching
    /// [`TraceEvent::MessageSent`] (if any) is the later, successful
    /// attempt.
    MessageDropped {
        /// Sender.
        from: PeerId,
        /// Intended receiver.
        to: PeerId,
        /// Message kind of the lost attempt.
        kind: MessageKind,
        /// Charged bytes the attempt *would* have cost.
        bytes: u64,
        /// Simulated time of the failed attempt.
        at_ms: f64,
    },
    /// The engine armed a capped-exponential-backoff retry after a
    /// failed send attempt (drop, outage or crash window).
    RetryScheduled {
        /// Sender.
        from: PeerId,
        /// Intended receiver.
        to: PeerId,
        /// Message kind being retried.
        kind: MessageKind,
        /// 1-based retry number (attempt 1 is the first *re*try).
        attempt: u32,
        /// The backoff delay about to be waited, jitter included.
        backoff_ms: f64,
        /// Simulated time the retry was armed (before the backoff).
        at_ms: f64,
    },
    /// A generic (`@any`) reference abandoned an unreachable replica and
    /// re-ran `pickDoc`/`pickService` over the remaining candidates.
    Failover {
        /// The peer resolving the generic reference.
        peer: PeerId,
        /// The equivalence-class name being resolved, shared like
        /// [`TraceEvent::ServiceCall`]'s `service`.
        class: Arc<str>,
        /// The replica peer that was given up on.
        dead: PeerId,
        /// Simulated time of the failover decision.
        at_ms: f64,
    },
}

/// The short kind name of every event shape, indexed by AXTR tag byte
/// minus one ([`TraceEvent::tag`] and [`TraceEvent::build`] name rows by
/// tag byte). Append-only: new variants take the next free byte,
/// existing rows never change meaning.
const KINDS: [&str; 12] = [
    "definition",
    "delegation",
    "message",
    "delivered",
    "task",
    "rule",
    "plan",
    "service-call",
    "delta",
    "dropped",
    "retry",
    "failover",
];

/// Why a record payload did not decode: a short or non-UTF-8 field
/// ([`axml_net::bytes::BytesError`]) or an unknown tag or code.
pub(crate) type DecodeError = Box<dyn std::error::Error>;

/// `usize` counters travel as `u32`; a count past `u32::MAX` pins at
/// the maximum instead of wrapping.
fn count(v: usize) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

impl TraceEvent {
    /// This variant's AXTR tag byte (its row of the kind table).
    #[inline]
    pub(crate) fn tag(&self) -> u8 {
        match self {
            TraceEvent::Definition { .. } => 1,
            TraceEvent::Delegation { .. } => 2,
            TraceEvent::MessageSent { .. } => 3,
            TraceEvent::MessageDelivered { .. } => 4,
            TraceEvent::TaskScheduled { .. } => 5,
            TraceEvent::RuleAttempted { .. } => 6,
            TraceEvent::PlanChosen { .. } => 7,
            TraceEvent::ServiceCall { .. } => 8,
            TraceEvent::SubscriptionDelta { .. } => 9,
            TraceEvent::MessageDropped { .. } => 10,
            TraceEvent::RetryScheduled { .. } => 11,
            TraceEvent::Failover { .. } => 12,
        }
    }

    /// Short kind tag, stable for filtering ("definition", "delegation",
    /// "message", "delivered", "task", "rule", "plan", "service-call",
    /// "delta", "dropped", "retry", "failover").
    pub fn kind(&self) -> &'static str {
        KINDS[usize::from(self.tag()) - 1]
    }

    /// Append this event's AXTR record payload to `out`: the tag byte,
    /// then every field in wire order — the single definition of the
    /// payload layout. To add a field: one line here, the matching line
    /// in [`TraceEvent::build`], and a bump of [`crate::codec::VERSION`].
    #[inline]
    pub(crate) fn visit(&self, out: &mut Vec<u8>) {
        out.put_u8(self.tag());
        match self {
            TraceEvent::Definition {
                def,
                peer,
                expr,
                at_ms,
            } => {
                out.put_u8(*def);
                out.put_u32(peer.0);
                out.put_str(expr);
                out.put_f64(*at_ms);
            }
            TraceEvent::Delegation { from, to, at_ms } => {
                out.put_u32(from.0);
                out.put_u32(to.0);
                out.put_f64(*at_ms);
            }
            TraceEvent::MessageSent {
                from,
                to,
                kind,
                bytes,
                sent_ms,
                at_ms,
            } => {
                out.put_u32(from.0);
                out.put_u32(to.0);
                out.put_u8(kind.wire_code());
                out.put_u64(*bytes);
                out.put_f64(*sent_ms);
                out.put_f64(*at_ms);
            }
            TraceEvent::MessageDelivered {
                from,
                to,
                kind,
                bytes,
                at_ms,
            }
            | TraceEvent::MessageDropped {
                from,
                to,
                kind,
                bytes,
                at_ms,
            } => {
                out.put_u32(from.0);
                out.put_u32(to.0);
                out.put_u8(kind.wire_code());
                out.put_u64(*bytes);
                out.put_f64(*at_ms);
            }
            TraceEvent::TaskScheduled { peer, task, at_ms } => {
                out.put_u32(peer.0);
                out.put_str(task);
                out.put_f64(*at_ms);
            }
            TraceEvent::RuleAttempted {
                rule,
                accepted,
                cost,
            } => {
                out.put_str(rule);
                out.put_u8((*accepted).into());
                out.put_f64(*cost);
            }
            TraceEvent::PlanChosen {
                site,
                explored,
                cost,
                trace,
            } => {
                out.put_u32(site.0);
                out.put_u32(count(*explored));
                out.put_f64(*cost);
                out.put_len(trace.len());
                for rule in trace {
                    out.put_str(rule);
                }
            }
            TraceEvent::ServiceCall {
                caller,
                provider,
                service,
                call_id,
                at_ms,
            } => {
                out.put_u32(caller.0);
                out.put_u32(provider.0);
                out.put_str(service);
                out.put_u64(*call_id);
                out.put_f64(*at_ms);
            }
            TraceEvent::SubscriptionDelta {
                subscription,
                provider,
                fresh,
                suppressed,
                at_ms,
            } => {
                out.put_u64(*subscription);
                out.put_u32(provider.0);
                out.put_u32(count(*fresh));
                out.put_u32(count(*suppressed));
                out.put_f64(*at_ms);
            }
            TraceEvent::RetryScheduled {
                from,
                to,
                kind,
                attempt,
                backoff_ms,
                at_ms,
            } => {
                out.put_u32(from.0);
                out.put_u32(to.0);
                out.put_u8(kind.wire_code());
                out.put_u32(*attempt);
                out.put_f64(*backoff_ms);
                out.put_f64(*at_ms);
            }
            TraceEvent::Failover {
                peer,
                class,
                dead,
                at_ms,
            } => {
                out.put_u32(peer.0);
                out.put_str(class);
                out.put_u32(dead.0);
                out.put_f64(*at_ms);
            }
        }
    }

    /// Rebuild an event from the payload [`TraceEvent::visit`] wrote:
    /// the tag byte, then that variant's fields in the same order.
    pub(crate) fn build(c: &mut Cursor) -> Result<Self, DecodeError> {
        let peer = |c: &mut Cursor| c.u32().map(PeerId);
        let text = |c: &mut Cursor| c.str().map(|s| TraceStr::Owned(s.to_string()));
        let msg = |c: &mut Cursor| {
            let code = c.u8()?;
            MessageKind::from_wire_code(code)
                .ok_or_else(|| DecodeError::from(format!("unknown message-kind code {code}")))
        };
        Ok(match c.u8()? {
            1 => TraceEvent::Definition {
                def: c.u8()?,
                peer: peer(c)?,
                expr: text(c)?,
                at_ms: c.f64()?,
            },
            2 => TraceEvent::Delegation {
                from: peer(c)?,
                to: peer(c)?,
                at_ms: c.f64()?,
            },
            3 => TraceEvent::MessageSent {
                from: peer(c)?,
                to: peer(c)?,
                kind: msg(c)?,
                bytes: c.u64()?,
                sent_ms: c.f64()?,
                at_ms: c.f64()?,
            },
            4 => TraceEvent::MessageDelivered {
                from: peer(c)?,
                to: peer(c)?,
                kind: msg(c)?,
                bytes: c.u64()?,
                at_ms: c.f64()?,
            },
            5 => TraceEvent::TaskScheduled {
                peer: peer(c)?,
                task: text(c)?,
                at_ms: c.f64()?,
            },
            6 => TraceEvent::RuleAttempted {
                rule: text(c)?,
                accepted: c.u8()? != 0,
                cost: c.f64()?,
            },
            7 => TraceEvent::PlanChosen {
                site: peer(c)?,
                explored: c.u32()? as usize,
                cost: c.f64()?,
                // Collecting stops at the first short read, so a hostile
                // count costs no allocation up front.
                trace: (0..c.u32()?).map(|_| text(c)).collect::<Result<_, _>>()?,
            },
            8 => TraceEvent::ServiceCall {
                caller: peer(c)?,
                provider: peer(c)?,
                service: text(c)?.into(),
                call_id: c.u64()?,
                at_ms: c.f64()?,
            },
            9 => TraceEvent::SubscriptionDelta {
                subscription: c.u64()?,
                provider: peer(c)?,
                fresh: c.u32()? as usize,
                suppressed: c.u32()? as usize,
                at_ms: c.f64()?,
            },
            10 => TraceEvent::MessageDropped {
                from: peer(c)?,
                to: peer(c)?,
                kind: msg(c)?,
                bytes: c.u64()?,
                at_ms: c.f64()?,
            },
            11 => TraceEvent::RetryScheduled {
                from: peer(c)?,
                to: peer(c)?,
                kind: msg(c)?,
                attempt: c.u32()?,
                backoff_ms: c.f64()?,
                at_ms: c.f64()?,
            },
            12 => TraceEvent::Failover {
                peer: peer(c)?,
                class: text(c)?.into(),
                dead: peer(c)?,
                at_ms: c.f64()?,
            },
            other => return Err(format!("unknown event tag {other}").into()),
        })
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Definition {
                def,
                peer,
                expr,
                at_ms,
            } => write!(f, "[{at_ms:9.3}ms] def({def}) {expr} @{peer}"),
            TraceEvent::Delegation { from, to, at_ms } => {
                write!(f, "[{at_ms:9.3}ms] delegate {from} → {to}")
            }
            TraceEvent::MessageSent {
                from,
                to,
                kind,
                bytes,
                at_ms,
                ..
            } => write!(f, "[{at_ms:9.3}ms] msg {kind} {from} → {to} ({bytes} B)"),
            TraceEvent::MessageDelivered {
                from,
                to,
                kind,
                bytes,
                at_ms,
            } => write!(f, "[{at_ms:9.3}ms] dlv {kind} {from} → {to} ({bytes} B)"),
            TraceEvent::TaskScheduled { peer, task, at_ms } => {
                write!(f, "[{at_ms:9.3}ms] task {task} @{peer}")
            }
            TraceEvent::RuleAttempted {
                rule,
                accepted,
                cost,
            } => write!(
                f,
                "[ optimize ] {rule} cost {cost:.1} {}",
                if *accepted { "✓ new best" } else { "· kept open" }
            ),
            TraceEvent::PlanChosen {
                site,
                explored,
                cost,
                trace,
            } => write!(
                f,
                "[ optimize ] plan @{site}: cost {cost:.1}, explored {explored}, via {}",
                if trace.is_empty() {
                    "(input)".to_string()
                } else {
                    trace.join(" → ")
                }
            ),
            TraceEvent::ServiceCall {
                caller,
                provider,
                service,
                call_id,
                at_ms,
            } => write!(
                f,
                "[{at_ms:9.3}ms] call #{call_id} {service} {caller} → {provider}"
            ),
            TraceEvent::SubscriptionDelta {
                subscription,
                provider,
                fresh,
                suppressed,
                at_ms,
            } => write!(
                f,
                "[{at_ms:9.3}ms] delta sub#{subscription} @{provider}: {fresh} fresh, {suppressed} suppressed"
            ),
            TraceEvent::MessageDropped {
                from,
                to,
                kind,
                bytes,
                at_ms,
            } => write!(f, "[{at_ms:9.3}ms] drop {kind} {from} → {to} ({bytes} B)"),
            TraceEvent::RetryScheduled {
                from,
                to,
                kind,
                attempt,
                backoff_ms,
                at_ms,
            } => write!(
                f,
                "[{at_ms:9.3}ms] retry #{attempt} {kind} {from} → {to} after {backoff_ms:.2} ms"
            ),
            TraceEvent::Failover {
                peer,
                class,
                dead,
                at_ms,
            } => write!(
                f,
                "[{at_ms:9.3}ms] failover {class}@any @{peer}: abandoning {dead}"
            ),
        }
    }
}

/// A consumer of trace events.
///
/// Implementations should be cheap: `record` is called inline from the
/// evaluator's hot path whenever tracing is enabled.
///
/// # The flush / `Drop` contract
///
/// A sink MAY buffer events between `record` calls (the file sinks in
/// [`crate::sink`] do). Every buffering sink must uphold:
///
/// 1. **`flush` makes the trace durable.** After `flush` returns `Ok`,
///    every event recorded so far has been pushed through to the
///    underlying writer (and on to the OS for file-backed writers).
/// 2. **`Drop` is a best-effort flush.** Dropping a sink must attempt
///    the same flush so tail events are not silently lost, but — being
///    `Drop` — cannot report failure. Callers that care about errors
///    call `flush` (or a consuming `finish`, where offered) first.
/// 3. **Callers flush at quiescence.** The engine flushes the installed
///    sink when a session runs to quiescence, and
///    `AxmlSystem::clear_trace_sink` flushes before detaching and
///    returns that flush's error, so a sink handed to a system never
///    relies on (2) alone.
///
/// The default implementation is a no-op `Ok(())`: unbuffered sinks
/// ([`VecSink`]) need nothing more.
pub trait TraceSink {
    /// Consume one event.
    fn record(&mut self, event: TraceEvent);

    /// Push all buffered events through to the underlying writer.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A sink that buffers events in memory, shareable by cloning.
///
/// Keep a clone, hand the other to the system, read the events after
/// the run:
///
/// ```
/// use axml_obs::{Obs, TraceEvent, VecSink};
/// let sink = VecSink::new();
/// let mut obs = Obs::new();
/// obs.set_sink(Box::new(sink.clone()));
/// // ... run something that emits ...
/// let events: Vec<TraceEvent> = sink.take();
/// ```
#[derive(Clone, Default)]
pub struct VecSink {
    events: Rc<RefCell<Vec<TraceEvent>>>,
}

impl VecSink {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of all events recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.borrow().clone()
    }

    /// Drain the buffer, returning the recorded events.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.borrow_mut())
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, event: TraceEvent) {
        self.events.borrow_mut().push(event);
    }
}

/// Boxed sinks forward transparently, so APIs taking
/// `impl TraceSink + 'static` also accept a `Box<dyn TraceSink>` chosen
/// at runtime.
impl TraceSink for Box<dyn TraceSink> {
    fn record(&mut self, event: TraceEvent) {
        (**self).record(event);
    }

    fn flush(&mut self) -> std::io::Result<()> {
        (**self).flush()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn vec_sink_buffers_and_drains() {
        let sink = VecSink::new();
        let mut s2 = sink.clone();
        s2.record(TraceEvent::Delegation {
            from: PeerId(0),
            to: PeerId(1),
            at_ms: 3.0,
        });
        assert_eq!(sink.len(), 1);
        assert!(!sink.is_empty());
        let evs = sink.take();
        assert_eq!(evs.len(), 1);
        assert!(sink.is_empty());
        assert_eq!(evs[0].kind(), "delegation");
    }

    /// One event of every kind, exercising every field.
    pub(crate) fn one_of_each() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Definition {
                def: 6,
                peer: PeerId(1),
                expr: "sc".into(),
                at_ms: 0.5,
            },
            TraceEvent::Delegation {
                from: PeerId(0),
                to: PeerId(1),
                at_ms: 1.0,
            },
            TraceEvent::MessageSent {
                from: PeerId(0),
                to: PeerId(1),
                kind: MessageKind::Data(crate::kind::DataTag::Fetch),
                bytes: 128,
                sent_ms: 1.5,
                at_ms: 2.0,
            },
            TraceEvent::MessageDelivered {
                from: PeerId(0),
                to: PeerId(1),
                kind: MessageKind::Data(crate::kind::DataTag::Fetch),
                bytes: 128,
                at_ms: 2.5,
            },
            TraceEvent::TaskScheduled {
                peer: PeerId(1),
                task: "eval".into(),
                at_ms: 2.5,
            },
            TraceEvent::RuleAttempted {
                rule: "R11-push-select".into(),
                accepted: true,
                cost: 12.5,
            },
            TraceEvent::PlanChosen {
                site: PeerId(0),
                explored: 42,
                cost: 10.0,
                trace: vec!["R10-delegate".into(), "R11-push-select".into()],
            },
            TraceEvent::ServiceCall {
                caller: PeerId(0),
                provider: PeerId(1),
                service: "news".into(),
                call_id: 7,
                at_ms: 3.0,
            },
            TraceEvent::SubscriptionDelta {
                subscription: 7,
                provider: PeerId(1),
                fresh: 2,
                suppressed: 5,
                at_ms: 4.0,
            },
            TraceEvent::MessageDropped {
                from: PeerId(0),
                to: PeerId(1),
                kind: MessageKind::Request,
                bytes: 96,
                at_ms: 5.0,
            },
            TraceEvent::RetryScheduled {
                from: PeerId(0),
                to: PeerId(1),
                kind: MessageKind::Request,
                attempt: 2,
                backoff_ms: 12.5,
                at_ms: 5.0,
            },
            TraceEvent::Failover {
                peer: PeerId(0),
                class: "catalog".into(),
                dead: PeerId(1),
                at_ms: 6.0,
            },
        ]
    }

    /// A `Definition` event firing paper definition `def`.
    pub(crate) fn def(def: u8) -> TraceEvent {
        TraceEvent::Definition {
            def,
            peer: PeerId(0),
            expr: "tree".into(),
            at_ms: 0.0,
        }
    }

    /// One attempt of `rule` by the optimizer.
    pub(crate) fn rule(rule: &'static str, accepted: bool) -> TraceEvent {
        TraceEvent::RuleAttempted {
            rule: rule.into(),
            accepted,
            cost: 0.0,
        }
    }

    /// A message of `bytes` charged bytes from `from` to `to`.
    pub(crate) fn sent(from: u32, to: u32, kind: MessageKind, bytes: u64) -> TraceEvent {
        TraceEvent::MessageSent {
            from: PeerId(from),
            to: PeerId(to),
            kind,
            bytes,
            sent_ms: 0.0,
            at_ms: 1.0,
        }
    }

    /// A send attempt from `from` to `to` lost to fault injection.
    pub(crate) fn dropped(from: u32, to: u32) -> TraceEvent {
        TraceEvent::MessageDropped {
            from: PeerId(from),
            to: PeerId(to),
            kind: MessageKind::Request,
            bytes: 8,
            at_ms: 0.0,
        }
    }

    #[test]
    fn display_renders_every_kind() {
        for e in &one_of_each() {
            assert!(!e.to_string().is_empty());
        }
    }
}
