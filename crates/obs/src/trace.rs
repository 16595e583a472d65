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

use crate::json::{self, JsonObject, JsonValue};
use crate::kind::MessageKind;
use axml_xml::ids::PeerId;
use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

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
    /// The optimizer finished a search.
    PlanChosen {
        /// The evaluation site optimized for.
        site: PeerId,
        /// Candidates examined.
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
        /// The resolved (concrete) service name.
        service: String,
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
        /// The equivalence-class name being resolved.
        class: String,
        /// The replica peer that was given up on.
        dead: PeerId,
        /// Simulated time of the failover decision.
        at_ms: f64,
    },
}

/// `(AXTR tag byte, JSON "kind" string)` of every event shape — the one
/// place the two spellings are paired ([`TraceEvent::tag`] and
/// [`TraceEvent::build`] name rows by tag byte). Append-only: new
/// variants take the next free byte, existing rows never change meaning.
const KINDS: [(u8, &str); 12] = [
    (1, "definition"),
    (2, "delegation"),
    (3, "message"),
    (4, "delivered"),
    (5, "task"),
    (6, "rule"),
    (7, "plan"),
    (8, "service-call"),
    (9, "delta"),
    (10, "dropped"),
    (11, "retry"),
    (12, "failover"),
];

// `TraceEvent::kind` indexes the table by tag: row `i` holds tag `i + 1`.
const _: () = {
    let mut i = 0;
    while i < KINDS.len() {
        assert!(KINDS[i].0 as usize == i + 1);
        i += 1;
    }
};

/// Where [`TraceEvent::visit`] sends an event's fields, in wire order:
/// one method per wire type. The JSON object writer (below) and the AXTR
/// payload writer ([`crate::codec`]) are the two implementations.
pub(crate) trait FieldSink {
    fn u8(&mut self, name: &'static str, v: u8);
    fn u32(&mut self, name: &'static str, v: u32);
    fn u64(&mut self, name: &'static str, v: u64);
    fn f64(&mut self, name: &'static str, v: f64);
    fn bool(&mut self, name: &'static str, v: bool);
    fn str(&mut self, name: &'static str, v: &str);
    fn strs(&mut self, name: &'static str, v: &[TraceStr]);
    fn msg(&mut self, name: &'static str, v: MessageKind);
}

/// Where [`TraceEvent::build`] reads an event's fields from — the
/// inverse of [`FieldSink`], same methods, same order.
pub(crate) trait FieldSource {
    fn u8(&mut self, name: &'static str) -> Result<u8, String>;
    fn u32(&mut self, name: &'static str) -> Result<u32, String>;
    fn u64(&mut self, name: &'static str) -> Result<u64, String>;
    fn f64(&mut self, name: &'static str) -> Result<f64, String>;
    fn bool(&mut self, name: &'static str) -> Result<bool, String>;
    fn str(&mut self, name: &'static str) -> Result<TraceStr, String>;
    fn strs(&mut self, name: &'static str) -> Result<Vec<TraceStr>, String>;
    fn msg(&mut self, name: &'static str) -> Result<MessageKind, String>;
}

/// `usize` counters travel as `u32` in both formats; a count past
/// `u32::MAX` pins at the maximum instead of wrapping.
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
        KINDS[usize::from(self.tag()) - 1].1
    }

    /// Every field of this event as `(name, typed value)`, in wire
    /// order — the single definition both encodings are written from.
    /// To add a field: one line here, the matching line in
    /// [`TraceEvent::build`], and a bump of [`crate::codec::VERSION`].
    #[inline]
    pub(crate) fn visit<S: FieldSink>(&self, s: &mut S) {
        match self {
            TraceEvent::Definition {
                def,
                peer,
                expr,
                at_ms,
            } => {
                s.u8("def", *def);
                s.u32("peer", peer.0);
                s.str("expr", expr);
                s.f64("at_ms", *at_ms);
            }
            TraceEvent::Delegation { from, to, at_ms } => {
                s.u32("from", from.0);
                s.u32("to", to.0);
                s.f64("at_ms", *at_ms);
            }
            TraceEvent::MessageSent {
                from,
                to,
                kind,
                bytes,
                sent_ms,
                at_ms,
            } => {
                s.u32("from", from.0);
                s.u32("to", to.0);
                s.msg("msg", *kind);
                s.u64("bytes", *bytes);
                s.f64("sent_ms", *sent_ms);
                s.f64("at_ms", *at_ms);
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
                s.u32("from", from.0);
                s.u32("to", to.0);
                s.msg("msg", *kind);
                s.u64("bytes", *bytes);
                s.f64("at_ms", *at_ms);
            }
            TraceEvent::TaskScheduled { peer, task, at_ms } => {
                s.u32("peer", peer.0);
                s.str("task", task);
                s.f64("at_ms", *at_ms);
            }
            TraceEvent::RuleAttempted {
                rule,
                accepted,
                cost,
            } => {
                s.str("rule", rule);
                s.bool("accepted", *accepted);
                s.f64("cost", *cost);
            }
            TraceEvent::PlanChosen {
                site,
                explored,
                cost,
                trace,
            } => {
                s.u32("site", site.0);
                s.u32("explored", count(*explored));
                s.f64("cost", *cost);
                s.strs("trace", trace);
            }
            TraceEvent::ServiceCall {
                caller,
                provider,
                service,
                call_id,
                at_ms,
            } => {
                s.u32("caller", caller.0);
                s.u32("provider", provider.0);
                s.str("service", service);
                s.u64("call_id", *call_id);
                s.f64("at_ms", *at_ms);
            }
            TraceEvent::SubscriptionDelta {
                subscription,
                provider,
                fresh,
                suppressed,
                at_ms,
            } => {
                s.u64("subscription", *subscription);
                s.u32("provider", provider.0);
                s.u32("fresh", count(*fresh));
                s.u32("suppressed", count(*suppressed));
                s.f64("at_ms", *at_ms);
            }
            TraceEvent::RetryScheduled {
                from,
                to,
                kind,
                attempt,
                backoff_ms,
                at_ms,
            } => {
                s.u32("from", from.0);
                s.u32("to", to.0);
                s.msg("msg", *kind);
                s.u32("attempt", *attempt);
                s.f64("backoff_ms", *backoff_ms);
                s.f64("at_ms", *at_ms);
            }
            TraceEvent::Failover {
                peer,
                class,
                dead,
                at_ms,
            } => {
                s.u32("peer", peer.0);
                s.str("class", class);
                s.u32("dead", dead.0);
                s.f64("at_ms", *at_ms);
            }
        }
    }

    /// Rebuild the event with tag byte `tag` by pulling the fields
    /// [`TraceEvent::visit`] pushed, in the same order.
    pub(crate) fn build<R: FieldSource>(tag: u8, r: &mut R) -> Result<Self, String> {
        let peer = |r: &mut R, name| r.u32(name).map(PeerId);
        Ok(match tag {
            1 => TraceEvent::Definition {
                def: r.u8("def")?,
                peer: peer(r, "peer")?,
                expr: r.str("expr")?,
                at_ms: r.f64("at_ms")?,
            },
            2 => TraceEvent::Delegation {
                from: peer(r, "from")?,
                to: peer(r, "to")?,
                at_ms: r.f64("at_ms")?,
            },
            3 => TraceEvent::MessageSent {
                from: peer(r, "from")?,
                to: peer(r, "to")?,
                kind: r.msg("msg")?,
                bytes: r.u64("bytes")?,
                sent_ms: r.f64("sent_ms")?,
                at_ms: r.f64("at_ms")?,
            },
            4 => TraceEvent::MessageDelivered {
                from: peer(r, "from")?,
                to: peer(r, "to")?,
                kind: r.msg("msg")?,
                bytes: r.u64("bytes")?,
                at_ms: r.f64("at_ms")?,
            },
            5 => TraceEvent::TaskScheduled {
                peer: peer(r, "peer")?,
                task: r.str("task")?,
                at_ms: r.f64("at_ms")?,
            },
            6 => TraceEvent::RuleAttempted {
                rule: r.str("rule")?,
                accepted: r.bool("accepted")?,
                cost: r.f64("cost")?,
            },
            7 => TraceEvent::PlanChosen {
                site: peer(r, "site")?,
                explored: r.u32("explored")? as usize,
                cost: r.f64("cost")?,
                trace: r.strs("trace")?,
            },
            8 => TraceEvent::ServiceCall {
                caller: peer(r, "caller")?,
                provider: peer(r, "provider")?,
                service: r.str("service")?.into_owned(),
                call_id: r.u64("call_id")?,
                at_ms: r.f64("at_ms")?,
            },
            9 => TraceEvent::SubscriptionDelta {
                subscription: r.u64("subscription")?,
                provider: peer(r, "provider")?,
                fresh: r.u32("fresh")? as usize,
                suppressed: r.u32("suppressed")? as usize,
                at_ms: r.f64("at_ms")?,
            },
            10 => TraceEvent::MessageDropped {
                from: peer(r, "from")?,
                to: peer(r, "to")?,
                kind: r.msg("msg")?,
                bytes: r.u64("bytes")?,
                at_ms: r.f64("at_ms")?,
            },
            11 => TraceEvent::RetryScheduled {
                from: peer(r, "from")?,
                to: peer(r, "to")?,
                kind: r.msg("msg")?,
                attempt: r.u32("attempt")?,
                backoff_ms: r.f64("backoff_ms")?,
                at_ms: r.f64("at_ms")?,
            },
            12 => TraceEvent::Failover {
                peer: peer(r, "peer")?,
                class: r.str("class")?.into_owned(),
                dead: peer(r, "dead")?,
                at_ms: r.f64("at_ms")?,
            },
            other => return Err(format!("unknown event tag {other}")),
        })
    }

    /// The event as a single JSON object: `"kind"`, then the fields.
    pub fn to_json(&self) -> String {
        let mut o = JsonFields(JsonObject::new());
        o.0.str("kind", self.kind());
        self.visit(&mut o);
        o.0.finish()
    }

    /// Parse one event back from the JSON produced by
    /// [`TraceEvent::to_json`] (the `JsonlSink` line format). Inverse of
    /// `to_json` for every finite-timestamp event; non-finite floats were
    /// written as `null` and decode as NaN.
    pub fn from_json(src: &str) -> Result<Self, String> {
        let v = json::parse(src)?;
        let kind = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or("missing \"kind\" field")?;
        let (tag, _) = KINDS
            .iter()
            .find(|(_, k)| *k == kind)
            .ok_or_else(|| format!("unknown event kind {kind:?}"))?;
        Self::build(*tag, &mut JsonFields(&v))
    }
}

/// The JSON side of the field schema: writing into a [`JsonObject`],
/// reading (by name, so key order is free) from a parsed object.
struct JsonFields<T>(T);

impl FieldSink for JsonFields<JsonObject> {
    fn u8(&mut self, name: &'static str, v: u8) {
        self.0.num_u64(name, v.into());
    }
    fn u32(&mut self, name: &'static str, v: u32) {
        self.0.num_u64(name, v.into());
    }
    fn u64(&mut self, name: &'static str, v: u64) {
        self.0.num_u64(name, v);
    }
    fn f64(&mut self, name: &'static str, v: f64) {
        self.0.num(name, v);
    }
    fn bool(&mut self, name: &'static str, v: bool) {
        self.0.bool(name, v);
    }
    fn str(&mut self, name: &'static str, v: &str) {
        self.0.str(name, v);
    }
    fn strs(&mut self, name: &'static str, v: &[TraceStr]) {
        self.0.str_array(name, v.iter().map(|s| s.as_ref()));
    }
    fn msg(&mut self, name: &'static str, v: MessageKind) {
        self.0.str(name, v.as_str());
    }
}

impl JsonFields<&JsonValue> {
    fn get<'v, T>(
        &'v self,
        name: &str,
        what: &str,
        read: impl FnOnce(&'v JsonValue) -> Option<T>,
    ) -> Result<T, String> {
        self.0
            .get(name)
            .and_then(read)
            .ok_or_else(|| format!("missing {what} field \"{name}\""))
    }

    fn int<T: TryFrom<u64>>(&self, name: &str) -> Result<T, String> {
        T::try_from(self.get(name, "integer", JsonValue::as_u64)?)
            .map_err(|_| format!("integer field \"{name}\" out of range"))
    }
}

pub(crate) fn owned(s: &str) -> TraceStr {
    TraceStr::Owned(s.to_string())
}

impl FieldSource for JsonFields<&JsonValue> {
    fn u8(&mut self, name: &'static str) -> Result<u8, String> {
        self.int(name)
    }
    fn u32(&mut self, name: &'static str) -> Result<u32, String> {
        self.int(name)
    }
    fn u64(&mut self, name: &'static str) -> Result<u64, String> {
        self.int(name)
    }
    fn f64(&mut self, name: &'static str) -> Result<f64, String> {
        self.get(name, "numeric", JsonValue::as_f64)
    }
    fn bool(&mut self, name: &'static str) -> Result<bool, String> {
        self.get(name, "boolean", JsonValue::as_bool)
    }
    fn str(&mut self, name: &'static str) -> Result<TraceStr, String> {
        self.get(name, "string", JsonValue::as_str).map(owned)
    }
    fn strs(&mut self, name: &'static str) -> Result<Vec<TraceStr>, String> {
        self.get(name, "array", JsonValue::as_arr)?
            .iter()
            .map(|e| e.as_str().map(owned))
            .collect::<Option<_>>()
            .ok_or_else(|| format!("non-string element in \"{name}\""))
    }
    fn msg(&mut self, name: &'static str) -> Result<MessageKind, String> {
        let kind = self.get(name, "string", JsonValue::as_str)?;
        MessageKind::parse(kind).ok_or_else(|| format!("unknown message kind {kind:?}"))
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
///    `AxmlSystem::clear_trace_sink` flushes before detaching, so a
///    sink handed to a system never relies on (2) alone.
///
/// The default implementation is a no-op `Ok(())`: unbuffered sinks
/// ([`VecSink`], [`StderrSink`]) need nothing more.
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

/// A sink that prints each event to stderr as it happens (debugging).
#[derive(Debug, Clone, Copy, Default)]
pub struct StderrSink;

impl TraceSink for StderrSink {
    fn record(&mut self, event: TraceEvent) {
        eprintln!("{event}");
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

    #[test]
    fn display_and_json_render_every_kind() {
        for e in &one_of_each() {
            let text = e.to_string();
            assert!(!text.is_empty());
            let json = e.to_json();
            assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
            assert!(
                json.contains(&format!("\"kind\":\"{}\"", e.kind())),
                "{json}"
            );
        }
    }

    #[test]
    fn json_round_trip_every_kind() {
        for e in &one_of_each() {
            let back = TraceEvent::from_json(&e.to_json()).unwrap();
            assert_eq!(&back, e);
        }
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(TraceEvent::from_json("not json").is_err());
        assert!(TraceEvent::from_json("{}").is_err());
        assert!(TraceEvent::from_json(r#"{"kind":"martian"}"#).is_err());
        assert!(TraceEvent::from_json(r#"{"kind":"delegation","from":0}"#).is_err());
        assert!(TraceEvent::from_json(
            r#"{"kind":"message","from":0,"to":1,"msg":"warp","bytes":1,"sent_ms":0,"at_ms":1}"#
        )
        .is_err());
    }

    #[test]
    fn adversarial_strings_round_trip_json() {
        let e = TraceEvent::ServiceCall {
            caller: PeerId(0),
            provider: PeerId(1),
            service: "svc\"\\\n\u{1}\u{7f} 中🦀".into(),
            call_id: u64::MAX,
            at_ms: 1.0,
        };
        let back = TraceEvent::from_json(&e.to_json()).unwrap();
        assert_eq!(back, e);
    }
}
