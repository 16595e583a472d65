//! Wire messages exchanged between AXML peers.
//!
//! Each variant corresponds to one kind of interaction in the paper's
//! evaluation semantics; the [`Payload`] impl reports exactly the bytes the
//! cost model charges (XML payloads travel serialized; headers are modelled
//! by the links' per-message overhead).

use axml_net::bytes::PutBytes;
use axml_net::Payload;
use axml_obs::{DataTag, MessageKind};
use axml_xml::ids::{DocName, NodeAddr, ServiceName};

/// A message between peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AxmlMessage {
    /// A serialized expression shipped for remote evaluation
    /// (definitions (5)/(7), rules (14)–(16)).
    Request {
        /// The serialized expression tree.
        expr_xml: String,
    },
    /// Data trees in transit (definitions (3)–(5)).
    Data {
        /// Serialized forest (concatenated tree serializations).
        payload: String,
        /// The exhaustive data refinement ("send", "fetch", …) — which
        /// definition or subsystem produced the transfer.
        tag: DataTag,
    },
    /// A service invocation: the `param_i` children shipped to the
    /// provider (§2.2 step 1).
    Invoke {
        /// Target service.
        service: ServiceName,
        /// Serialized parameter forests, one string per parameter.
        params: Vec<String>,
        /// Forward list (where the provider must send results).
        forward: Vec<NodeAddr>,
        /// Correlation id.
        call_id: u64,
    },
    /// A service response (§2.2 steps 2–3).
    Response {
        /// Correlation id.
        call_id: u64,
        /// Serialized result forest.
        payload: String,
    },
    /// A shipped query definition, deployed as a new service
    /// (definition (8)).
    DeployQuery {
        /// Serialized query (definition included).
        query_xml: String,
        /// Service name to install it under.
        as_service: ServiceName,
    },
    /// A tree installed as a new document (`send(d@p2, t)`).
    InstallDoc {
        /// New document name.
        name: DocName,
        /// Serialized tree.
        payload: String,
    },
}

impl AxmlMessage {
    /// The typed kind for metrics/traces. `Data` messages report their
    /// [`DataTag`] ("send", "fetch", "forward", …) so the per-kind
    /// traffic breakdown distinguishes the definition that produced
    /// them, and a typo in a kind label is a compile error.
    pub fn kind(&self) -> MessageKind {
        match self {
            AxmlMessage::Request { .. } => MessageKind::Request,
            AxmlMessage::Data { tag, .. } => MessageKind::Data(*tag),
            AxmlMessage::Invoke { .. } => MessageKind::Invoke,
            AxmlMessage::Response { .. } => MessageKind::Response,
            AxmlMessage::DeployQuery { .. } => MessageKind::DeployQuery,
            AxmlMessage::InstallDoc { .. } => MessageKind::InstallDoc,
        }
    }
}

impl AxmlMessage {
    /// Deterministic byte encoding for the AXTR wire: a variant tag
    /// followed by length-prefixed (u32 LE) fields. Socket-backed
    /// transports ship exactly these bytes across the process boundary
    /// and verify the endpoint's digest over them, so equal messages
    /// must always encode equally.
    pub fn frame_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            AxmlMessage::Request { expr_xml } => {
                out.put_u8(1);
                out.put_str(expr_xml);
            }
            AxmlMessage::Data { payload, tag } => {
                out.put_u8(2);
                out.put_str(tag.as_str());
                out.put_str(payload);
            }
            AxmlMessage::Invoke {
                service,
                params,
                forward,
                call_id,
            } => {
                out.put_u8(3);
                out.put_str(service.as_str());
                out.put_len(params.len());
                for p in params {
                    out.put_str(p);
                }
                out.put_len(forward.len());
                for addr in forward {
                    out.put_u32(addr.peer.0);
                    out.put_str(addr.doc.as_str());
                    out.put_len(addr.node.index());
                }
                out.put_u64(*call_id);
            }
            AxmlMessage::Response { call_id, payload } => {
                out.put_u8(4);
                out.put_u64(*call_id);
                out.put_str(payload);
            }
            AxmlMessage::DeployQuery {
                query_xml,
                as_service,
            } => {
                out.put_u8(5);
                out.put_str(as_service.as_str());
                out.put_str(query_xml);
            }
            AxmlMessage::InstallDoc { name, payload } => {
                out.put_u8(6);
                out.put_str(name.as_str());
                out.put_str(payload);
            }
        }
        out
    }
}

impl Payload for AxmlMessage {
    fn wire_size(&self) -> usize {
        match self {
            AxmlMessage::Request { expr_xml } => expr_xml.len(),
            AxmlMessage::Data { payload, .. } => payload.len(),
            AxmlMessage::Invoke {
                service,
                params,
                forward,
                ..
            } => {
                service.len()
                    + params.iter().map(String::len).sum::<usize>()
                    + forward.len() * 24
                    + 8
            }
            AxmlMessage::Response { payload, .. } => payload.len() + 8,
            AxmlMessage::DeployQuery {
                query_xml,
                as_service,
            } => query_xml.len() + as_service.len(),
            AxmlMessage::InstallDoc { name, payload } => name.len() + payload.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_xml::ids::PeerId;
    use axml_xml::tree::NodeId;

    #[test]
    fn sizes_reflect_payloads() {
        assert_eq!(
            AxmlMessage::Request {
                expr_xml: "<doc/>".into()
            }
            .wire_size(),
            6
        );
        assert_eq!(
            AxmlMessage::Data {
                payload: "x".repeat(100),
                tag: DataTag::Send
            }
            .wire_size(),
            100
        );
        let inv = AxmlMessage::Invoke {
            service: "svc".into(),
            params: vec!["<a/>".into(), "<b/>".into()],
            forward: vec![NodeAddr::new(
                PeerId(0),
                "d",
                NodeId::from_index(0).unwrap(),
            )],
            call_id: 7,
        };
        assert_eq!(inv.wire_size(), 3 + 8 + 24 + 8);
        assert_eq!(
            AxmlMessage::Response {
                call_id: 1,
                payload: "1234".into()
            }
            .wire_size(),
            12
        );
        assert_eq!(
            AxmlMessage::DeployQuery {
                query_xml: "q".repeat(10),
                as_service: "ss".into()
            }
            .wire_size(),
            12
        );
        assert_eq!(
            AxmlMessage::InstallDoc {
                name: "doc".into(),
                payload: "<t/>".into()
            }
            .wire_size(),
            7
        );
    }

    /// Cross-commit pin: the bytes `SocketTransport` ships (and the
    /// endpoint digests) for one message of every variant, captured
    /// once as literals. There is no decoder yet, so nothing else would
    /// notice a reordered field or a widened prefix.
    #[test]
    fn frame_bytes_are_pinned() {
        let hex = |m: &AxmlMessage| -> String {
            m.frame_bytes().iter().map(|b| format!("{b:02x}")).collect()
        };
        let golden: [(AxmlMessage, &str); 6] = [
            (
                AxmlMessage::Request {
                    expr_xml: "<doc name=\"d\"/>".into(),
                },
                "010f0000003c646f63206e616d653d2264222f3e",
            ),
            (
                AxmlMessage::Data {
                    payload: "<a>中</a><b/>".into(),
                    tag: DataTag::DelegatedResult,
                },
                "021000000064656c6567617465642d726573756c740e0000003c613ee4b8ad3c2f613e3c622f3e",
            ),
            (
                AxmlMessage::Invoke {
                    service: "svc".into(),
                    params: vec!["<a/>".into(), String::new()],
                    forward: vec![
                        NodeAddr::new(PeerId(2), "inbox", NodeId::from_index(5).unwrap()),
                        NodeAddr::new(PeerId(4_000_000_000), "", NodeId::from_index(0).unwrap()),
                    ],
                    call_id: u64::MAX,
                },
                "030300000073766302000000040000003c612f3e00000000020000000200000005000000696e626f780500000000286bee0000000000000000ffffffffffffffff",
            ),
            (
                AxmlMessage::Response {
                    call_id: 7,
                    payload: "<r/>".into(),
                },
                "040700000000000000040000003c722f3e",
            ),
            (
                AxmlMessage::DeployQuery {
                    query_xml: "<query/>".into(),
                    as_service: "q1".into(),
                },
                "05020000007131080000003c71756572792f3e",
            ),
            (
                AxmlMessage::InstallDoc {
                    name: "doc".into(),
                    payload: "<t/>".into(),
                },
                "0603000000646f63040000003c742f3e",
            ),
        ];
        for (msg, want) in &golden {
            assert_eq!(hex(msg), *want, "{msg:?}");
        }
    }
}
