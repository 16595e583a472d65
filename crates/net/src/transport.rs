//! The [`Transport`] trait: the wire under the network model.
//!
//! There is one network — [`SimTransport`](crate::sim::SimTransport)
//! owns peers, links, faults, the virtual clock, the delivery queue and
//! the statistics, and `axml-core` holds it by its concrete type. What
//! may differ from one deployment to the next is whether an accepted
//! message *also* leaves the process, and that is all a `Transport`
//! decides: the model shows it each peer as it is added and each
//! accepted cross-peer message just before the delivery is queued.
//! [`SocketTransport`](crate::socket::SocketTransport) is the one real
//! wire; a test fake is a dozen lines (`tests/prop_net.rs`).
//!
//! # Contract
//!
//! * **Only accepted traffic.** [`Transport::ship`] is called once per
//!   cross-peer send the model's fault gate let through, in send order —
//!   never for a dropped or refused attempt, never for a local
//!   (`from == to`) delivery. So a wire cannot disturb the seeded fault
//!   stream, and its ledger counts exactly what
//!   [`NetStats`](crate::stats::NetStats) charges.
//! * **Refusal is typed and free.** A wire that cannot deliver returns
//!   [`NetError::Wire`](crate::error::NetError::Wire); the model then
//!   hands the message back to the sender and charges nothing — no
//!   statistics, no clock movement, no queued delivery.
//! * **No say over time.** A wire never sees the clock or the link
//!   costs: virtual time is the model's alone, which is what keeps a
//!   run with a wire bit-identical to one without.
//!
//! `TRANSPORT.md` at the repository root is the long-form version.

use crate::error::NetResult;
use axml_xml::ids::PeerId;

/// A message that can be serialized into the payload of an AXTR wire
/// frame (see [`crate::frame`]).
///
/// The socket wire ships these bytes across the process boundary and
/// verifies the endpoint's acknowledgement digest against them. The
/// encoding must be **deterministic** — equal messages must encode to
/// equal bytes, or the differential oracle's digest reconciliation
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

/// A wire under the network model: what physically carries the
/// messages of type `M` the model accepted. Attach one with
/// [`SimTransport::over`](crate::sim::SimTransport::over); see the
/// [module docs](self) for the contract.
pub trait Transport<M> {
    /// A short label for reports and diagnostics (`"socket"`, …).
    fn label(&self) -> &'static str;

    /// Connect the wire's end of `peer`, which the model has just
    /// registered under `name`. Peers arrive in id order, each once.
    fn connect(&mut self, peer: PeerId, name: &str);

    /// Carry one accepted cross-peer message to `to` and verify that it
    /// arrived intact. An error refuses the send: the model returns
    /// `msg` to its caller and charges nothing.
    fn ship(&mut self, from: PeerId, to: PeerId, msg: &M) -> NetResult<()>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_frame_payloads_are_their_bytes() {
        let mut out = b"head".to_vec();
        "hi".frame_payload(&mut out);
        String::from("hé").frame_payload(&mut out);
        assert_eq!(out, "headhihé".as_bytes(), "appended, nothing overwritten");
    }
}
