//! Error type for the AXML core.

use axml_net::bytes::BytesError;
use axml_net::NetError;
use axml_obs::MessageKind;
use axml_query::QueryError;
use axml_types::TypeError;
use axml_xml::ids::{DocName, PeerId, ServiceName};
use axml_xml::XmlError;
use std::fmt;

/// Result alias for this crate.
pub type CoreResult<T> = Result<T, CoreError>;

/// Errors from the message-driven evaluation engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineError {
    /// A message could not be delivered because the link is down.
    Undeliverable {
        /// Sender.
        from: PeerId,
        /// Intended receiver.
        to: PeerId,
        /// Kind of the undeliverable message.
        kind: MessageKind,
    },
    /// An evaluation session drained its ready queue and its arrivals
    /// but continuations were still waiting — a lost completion.
    Stalled {
        /// The peer owning the first orphaned continuation.
        peer: PeerId,
        /// How many continuations were left waiting.
        waiting: usize,
    },
    /// A result slot part was never filled: the delivery that should
    /// have produced it was lost. (An *empty forest* part is a perfectly
    /// valid result and does not raise this — only a part nothing ever
    /// wrote to.)
    LostResult {
        /// The session-local slot index.
        slot: usize,
        /// The unfilled part within the slot.
        part: usize,
    },
    /// The retry budget ran out: every attempt at a logical send failed
    /// with a transient error (drop, outage, crashed peer).
    Exhausted {
        /// Sender.
        from: PeerId,
        /// Intended receiver.
        to: PeerId,
        /// Kind of the message that could not be delivered.
        kind: MessageKind,
        /// Total attempts made (first try + retries).
        attempts: u32,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Undeliverable { from, to, kind } => {
                write!(f, "cannot deliver {kind} — link {from} → {to} is down")
            }
            EngineError::Stalled { peer, waiting } => {
                write!(
                    f,
                    "evaluation stalled at {peer}: {waiting} continuation(s) still waiting"
                )
            }
            EngineError::LostResult { slot, part } => {
                write!(
                    f,
                    "result slot {slot} part {part} was never filled — a delivery was lost"
                )
            }
            EngineError::Exhausted {
                from,
                to,
                kind,
                attempts,
            } => {
                write!(
                    f,
                    "retry budget exhausted: {kind} {from} → {to} failed after {attempts} attempt(s)"
                )
            }
        }
    }
}

/// Errors from the AXML system.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// An XML-level failure.
    Xml(XmlError),
    /// A query-level failure.
    Query(QueryError),
    /// A type-level failure.
    Type(TypeError),
    /// A network-level failure.
    Net(NetError),
    /// A peer id not registered with the system.
    UnknownPeer(PeerId),
    /// A document not found on a peer.
    NoSuchDoc {
        /// The missing document.
        doc: DocName,
        /// The peer it was looked up on.
        at: PeerId,
    },
    /// A service not found on a peer.
    NoSuchService {
        /// The missing service.
        service: ServiceName,
        /// The peer it was looked up on.
        at: PeerId,
    },
    /// A generic (`@any`) reference with no registered replica.
    EmptyEquivalenceClass(String),
    /// Malformed `sc` element, expression tree or message frame.
    Malformed(String),
    /// A message frame cut short, over-long or not UTF-8.
    Frame(BytesError),
    /// An `@after` chain closes on itself (e.g. `sc A after B`,
    /// `sc B after A`): activating or pumping it would recurse without
    /// bound. The payload names the cycle.
    AfterCycle(String),
    /// An evaluation reached an unsupported shape.
    Unsupported(String),
    /// The evaluation engine failed to drive a session to completion.
    Engine(EngineError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Xml(e) => write!(f, "xml: {e}"),
            CoreError::Query(e) => write!(f, "query: {e}"),
            CoreError::Type(e) => write!(f, "type: {e}"),
            CoreError::Net(e) => write!(f, "net: {e}"),
            CoreError::UnknownPeer(p) => write!(f, "unknown peer {p}"),
            CoreError::NoSuchDoc { doc, at } => write!(f, "no document `{doc}` at {at}"),
            CoreError::NoSuchService { service, at } => {
                write!(f, "no service `{service}` at {at}")
            }
            CoreError::EmptyEquivalenceClass(c) => {
                write!(f, "generic reference `{c}@any` has no replica")
            }
            CoreError::Malformed(m) => write!(f, "malformed: {m}"),
            CoreError::Frame(e) => write!(f, "message frame: {e}"),
            CoreError::AfterCycle(c) => write!(f, "`@after` cycle: {c}"),
            CoreError::Unsupported(m) => write!(f, "unsupported: {m}"),
            CoreError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<XmlError> for CoreError {
    fn from(e: XmlError) -> Self {
        CoreError::Xml(e)
    }
}

impl From<QueryError> for CoreError {
    fn from(e: QueryError) -> Self {
        CoreError::Query(e)
    }
}

impl From<TypeError> for CoreError {
    fn from(e: TypeError) -> Self {
        CoreError::Type(e)
    }
}

impl From<BytesError> for CoreError {
    fn from(e: BytesError) -> Self {
        CoreError::Frame(e)
    }
}

impl From<NetError> for CoreError {
    fn from(e: NetError) -> Self {
        CoreError::Net(e)
    }
}

impl From<EngineError> for CoreError {
    fn from(e: EngineError) -> Self {
        CoreError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_froms() {
        let e: CoreError = XmlError::InvalidNode { index: 3 }.into();
        assert!(e.to_string().contains("xml:"));
        let e: CoreError = QueryError::UnboundVariable("$x".into()).into();
        assert!(e.to_string().contains("query:"));
        let e: CoreError = NetError::UnknownPeer(PeerId(0)).into();
        assert!(e.to_string().contains("net:"));
        let e: CoreError = TypeError::DuplicateType("T".into()).into();
        assert!(e.to_string().contains("type:"));
        assert!(CoreError::NoSuchDoc {
            doc: "d".into(),
            at: PeerId(1)
        }
        .to_string()
        .contains("p1"));
        assert!(CoreError::EmptyEquivalenceClass("c".into())
            .to_string()
            .contains("c@any"));
        assert!(CoreError::NoSuchService {
            service: "s".into(),
            at: PeerId(0)
        }
        .to_string()
        .contains("s"));
        assert!(CoreError::UnknownPeer(PeerId(7)).to_string().contains("p7"));
        assert!(CoreError::Malformed("x".into()).to_string().contains("x"));
        let text = CoreError::AfterCycle("a -> b -> a".into()).to_string();
        assert!(
            text.contains("cycle") && text.contains("a -> b -> a"),
            "{text}"
        );
        assert!(CoreError::Unsupported("y".into()).to_string().contains("y"));
        let e: CoreError = EngineError::Undeliverable {
            from: PeerId(0),
            to: PeerId(1),
            kind: MessageKind::Request,
        }
        .into();
        let text = e.to_string();
        assert!(text.contains("engine:"), "{text}");
        assert!(text.contains("down"), "{text}");
        assert!(text.contains("p0") && text.contains("p1"), "{text}");
        let text = CoreError::Engine(EngineError::Stalled {
            peer: PeerId(3),
            waiting: 2,
        })
        .to_string();
        assert!(text.contains("stalled") && text.contains("p3"), "{text}");
        let text = CoreError::Engine(EngineError::LostResult { slot: 4, part: 1 }).to_string();
        assert!(text.contains("slot 4") && text.contains("part 1"), "{text}");
        let text = CoreError::Engine(EngineError::Exhausted {
            from: PeerId(0),
            to: PeerId(2),
            kind: MessageKind::Request,
            attempts: 5,
        })
        .to_string();
        assert!(text.contains("exhausted"), "{text}");
        assert!(text.contains("5 attempt(s)"), "{text}");
        assert!(text.contains("p0") && text.contains("p2"), "{text}");
    }
}
