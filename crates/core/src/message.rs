//! Wire messages exchanged between AXML peers.
//!
//! Each variant corresponds to one kind of interaction in the paper's
//! evaluation semantics; the [`Payload`] impl reports exactly the bytes the
//! cost model charges (XML payloads travel serialized; headers are modelled
//! by the links' per-message overhead).
//!
//! A payload is a [`Body`]: the trees themselves plus their exact
//! serialized length, which is all the simulator asks for. Only a
//! socket-backed transport needs bytes, and the message then renders each
//! tree once, straight into the frame buffer, through
//! [`Tree::serialize_into`]: a walk, or — for a whole document shipped
//! twice since it last changed — a copy of the bytes its arena kept.

use crate::error::{CoreError, CoreResult};
use crate::expr::Expr;
use axml_net::bytes::{BytesError, Cursor, PutBytes};
use axml_net::Payload;
use axml_obs::{DataTag, MessageKind};
use axml_xml::ids::{DocName, NodeAddr, PeerId, ServiceName};
use axml_xml::tree::{NodeId, Tree};

/// A message payload, rendered on demand: a forest of tree handles, a
/// shipped expression, or text that already exists as a string (a query
/// definition, a decoded frame). The byte length is known up front — for
/// a forest from [`Tree::serialized_size`], which the arena memoizes, so
/// measuring an unchanged document again is O(1); for an expression from
/// [`Expr::wire_size`], which counts its text without writing it. Two
/// bodies are equal when they render to the same bytes.
#[derive(Debug, Clone)]
pub struct Body {
    src: Src,
    len: usize,
}

#[derive(Debug, Clone)]
enum Src {
    Text(String),
    Forest(Vec<Tree>),
    Expr(Expr),
}

impl Body {
    /// The text of `expr` ([`Expr::fingerprint`]), not yet rendered.
    pub(crate) fn expr(expr: Expr) -> Body {
        let len = expr.wire_size();
        debug_assert_eq!(
            len,
            {
                let mut text = Vec::new();
                expr.write_fingerprint(&mut text);
                text.len()
            },
            "wire size of {expr}"
        );
        Body {
            src: Src::Expr(expr),
            len,
        }
    }

    /// The concatenated compact serializations of `trees`, not yet
    /// rendered. Takes the handles: the message is their one holder.
    pub fn forest(trees: Vec<Tree>) -> Body {
        let len = trees.iter().map(Tree::serialized_size).sum();
        Body {
            src: Src::Forest(trees),
            len,
        }
    }

    /// Exact length of the rendered body in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the body renders to no bytes (the empty forest).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append the rendered body — exactly [`Body::len`] bytes — to `out`.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        match &self.src {
            Src::Text(s) => out.extend_from_slice(s.as_bytes()),
            Src::Forest(trees) => write_forest(trees, out),
            Src::Expr(e) => {
                #[cfg(test)]
                tests::BODY_RENDERS.set(tests::BODY_RENDERS.get() + 1);
                e.write_fingerprint(out);
            }
        }
        debug_assert_eq!(out.len() - start, self.len, "body length drifted");
    }

    /// The trees the body carries (a text body carries none).
    fn into_forest(self) -> Vec<Tree> {
        match self.src {
            Src::Forest(trees) => trees,
            Src::Text(_) | Src::Expr(_) => Vec::new(),
        }
    }

    /// The expression the body carries, if it was made by [`Body::expr`].
    fn into_expr(self) -> Option<Expr> {
        match self.src {
            Src::Expr(e) => Some(e),
            Src::Text(_) | Src::Forest(_) => None,
        }
    }

    fn put(&self, out: &mut Vec<u8>) {
        out.put_len(self.len);
        self.write_into(out);
    }

    fn rendered(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        self.write_into(&mut out);
        out
    }
}

impl From<String> for Body {
    fn from(text: String) -> Body {
        Body {
            len: text.len(),
            src: Src::Text(text),
        }
    }
}

impl From<&str> for Body {
    fn from(text: &str) -> Body {
        text.to_owned().into()
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Body) -> bool {
        self.len == other.len && self.rendered() == other.rendered()
    }
}

impl Eq for Body {}

/// Bytes a length-prefixed field of `len` bytes takes in a frame.
const fn field(len: usize) -> usize {
    4 + len
}

/// A message between peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AxmlMessage {
    /// A serialized expression shipped for remote evaluation
    /// (definitions (5)/(7), rules (14)–(16)).
    Request {
        /// The serialized expression tree.
        expr_xml: Body,
    },
    /// Data trees in transit (definitions (3)–(5)).
    Data {
        /// The forest (concatenated tree serializations).
        payload: Body,
        /// The exhaustive data refinement ("send", "fetch", …) — which
        /// definition or subsystem produced the transfer.
        tag: DataTag,
    },
    /// A service invocation: the `param_i` children shipped to the
    /// provider (§2.2 step 1).
    Invoke {
        /// Target service.
        service: ServiceName,
        /// Parameter forests, one body per parameter.
        params: Vec<Body>,
        /// Forward list (where the provider must send results).
        forward: Vec<NodeAddr>,
        /// Correlation id.
        call_id: u64,
    },
    /// A service response (§2.2 steps 2–3).
    Response {
        /// Correlation id.
        call_id: u64,
        /// The result forest.
        payload: Body,
    },
    /// A shipped query definition, deployed as a new service
    /// (definition (8)).
    DeployQuery {
        /// Serialized query (definition included).
        query_xml: Body,
        /// Service name to install it under.
        as_service: ServiceName,
    },
    /// A tree installed as a new document (`send(d@p2, t)`).
    InstallDoc {
        /// New document name.
        name: DocName,
        /// The document's content forest.
        payload: Body,
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

    /// The forests the message carries, handed to the receiver: one per
    /// parameter for an `Invoke`, the payload's for the variants that
    /// have one, none for shipped text.
    pub(crate) fn into_forests(self) -> Vec<Vec<Tree>> {
        match self {
            AxmlMessage::Invoke { params, .. } => {
                params.into_iter().map(Body::into_forest).collect()
            }
            AxmlMessage::Data { payload, .. }
            | AxmlMessage::Response { payload, .. }
            | AxmlMessage::InstallDoc { payload, .. } => vec![payload.into_forest()],
            AxmlMessage::Request { .. } | AxmlMessage::DeployQuery { .. } => Vec::new(),
        }
    }

    /// The expression a request ships, handed to the receiver; `None`
    /// for every other message and for a request whose body is text.
    pub(crate) fn into_shipped(self) -> Option<Expr> {
        match self {
            AxmlMessage::Request { expr_xml } => expr_xml.into_expr(),
            _ => None,
        }
    }

    /// Deterministic byte encoding for the AXTR wire: a variant tag
    /// followed by length-prefixed (u32 LE) fields. Socket-backed
    /// transports ship exactly these bytes across the process boundary
    /// and verify the endpoint's digest over them, so equal messages
    /// must always encode equally.
    pub fn frame_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_frame(&mut out);
        out
    }

    /// Exact length of [`AxmlMessage::frame_bytes`], without rendering.
    fn frame_len(&self) -> usize {
        1 + match self {
            AxmlMessage::Request { expr_xml } => field(expr_xml.len()),
            AxmlMessage::Data { payload, tag } => field(tag.as_str().len()) + field(payload.len()),
            AxmlMessage::Invoke {
                service,
                params,
                forward,
                ..
            } => {
                field(service.len())
                    + field(params.iter().map(|p| field(p.len())).sum())
                    + field(forward.iter().map(|a| 4 + field(a.doc.len()) + 4).sum())
                    + 8
            }
            AxmlMessage::Response { payload, .. } => 8 + field(payload.len()),
            AxmlMessage::DeployQuery {
                query_xml,
                as_service,
            } => field(as_service.len()) + field(query_xml.len()),
            AxmlMessage::InstallDoc { name, payload } => field(name.len()) + field(payload.len()),
        }
    }

    /// Append [`AxmlMessage::frame_bytes`] to `out`, reserving the exact
    /// final size first: every tree is walked once, into its final place.
    pub(crate) fn write_frame(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.reserve(self.frame_len());
        match self {
            AxmlMessage::Request { expr_xml } => {
                out.put_u8(1);
                expr_xml.put(out);
            }
            AxmlMessage::Data { payload, tag } => {
                out.put_u8(2);
                out.put_str(tag.as_str());
                payload.put(out);
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
                    p.put(out);
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
                payload.put(out);
            }
            AxmlMessage::DeployQuery {
                query_xml,
                as_service,
            } => {
                out.put_u8(5);
                out.put_str(as_service.as_str());
                query_xml.put(out);
            }
            AxmlMessage::InstallDoc { name, payload } => {
                out.put_u8(6);
                out.put_str(name.as_str());
                payload.put(out);
            }
        }
        debug_assert_eq!(out.len() - start, self.frame_len(), "frame length drifted");
    }

    /// Inverse of [`AxmlMessage::frame_bytes`]: every field bounds-checked,
    /// nothing left over. Bodies come back as text.
    pub fn decode(bytes: &[u8]) -> CoreResult<AxmlMessage> {
        let mut c = Cursor::new(bytes);
        let body = |c: &mut Cursor<'_>| c.str().map(Body::from);
        let msg = match c.u8()? {
            1 => AxmlMessage::Request {
                expr_xml: body(&mut c)?,
            },
            2 => {
                let tag = c.str()?;
                let Some(MessageKind::Data(tag)) = MessageKind::parse(tag) else {
                    return Err(CoreError::Malformed(format!("unknown data tag {tag:?}")));
                };
                AxmlMessage::Data {
                    payload: body(&mut c)?,
                    tag,
                }
            }
            3 => {
                let service = c.str()?.into();
                // Counts are untrusted: collect as fields actually
                // decode, never reserve by them.
                let params = (0..c.u32()?)
                    .map(|_| body(&mut c))
                    .collect::<Result<_, _>>()?;
                let forward = (0..c.u32()?)
                    .map(|_| {
                        let (peer, doc, node) = (c.u32()?, c.str()?, c.u32()? as usize);
                        let node = NodeId::from_index(node).expect("a u32 is an arena index");
                        Ok(NodeAddr::new(PeerId(peer), doc, node))
                    })
                    .collect::<Result<_, BytesError>>()?;
                AxmlMessage::Invoke {
                    service,
                    params,
                    forward,
                    call_id: c.u64()?,
                }
            }
            4 => AxmlMessage::Response {
                call_id: c.u64()?,
                payload: body(&mut c)?,
            },
            5 => {
                let as_service = c.str()?.into();
                AxmlMessage::DeployQuery {
                    query_xml: body(&mut c)?,
                    as_service,
                }
            }
            6 => AxmlMessage::InstallDoc {
                name: c.str()?.into(),
                payload: body(&mut c)?,
            },
            other => {
                return Err(CoreError::Malformed(format!(
                    "unknown message variant {other}"
                )))
            }
        };
        c.finish()?;
        Ok(msg)
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
                service.len() + params.iter().map(Body::len).sum::<usize>() + forward.len() * 24 + 8
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

/// The one byte emitter for data: append the concatenated compact
/// serializations of `trees` to `out`, each tree rendered once (walked,
/// or copied from its arena's bytes memo).
fn write_forest(trees: &[Tree], out: &mut Vec<u8>) {
    #[cfg(test)]
    tests::BODY_RENDERS.set(tests::BODY_RENDERS.get() + 1);
    for t in trees {
        t.serialize_into(out);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    thread_local! {
        /// Forests and expressions rendered on this thread: none, in a
        /// test on the simulator.
        pub(crate) static BODY_RENDERS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// The counter the simulator tests hold at zero does count, and an
    /// expression renders to its fingerprint.
    #[test]
    fn rendering_a_body_is_counted() {
        let before = BODY_RENDERS.get();
        assert_eq!(Body::forest(vec![Tree::new("t")]).rendered(), b"<t/>");
        assert_eq!(BODY_RENDERS.get(), before + 1);
        let e = Expr::Doc {
            name: "a&b".into(),
            at: crate::expr::PeerRef::At(PeerId(3)),
        };
        let body = Body::expr(e.clone());
        assert_eq!(body.len(), e.fingerprint().len());
        assert_eq!(body.rendered(), e.fingerprint().as_bytes());
        assert_eq!(body, Body::from(e.fingerprint()));
        assert_eq!(BODY_RENDERS.get(), before + 3);
    }

    /// Cross-commit pin: the bytes `SocketTransport` ships (and the
    /// endpoint digests) for one message of every variant, captured
    /// once as literals — a decoder that follows the encoder would not
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
                    params: vec!["<a/>".into(), "".into()],
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

    /// A request carrying the retired `<compose>` query form decodes —
    /// `decode` carries bodies as text and reads none — and reading its
    /// expression then answers a typed error, not a panic.
    #[test]
    fn a_retired_composition_decodes_to_a_typed_error() {
        use crate::expr::tests::RETIRED_APPLY;
        let request = AxmlMessage::Request {
            expr_xml: RETIRED_APPLY.into(),
        };
        let AxmlMessage::Request { expr_xml } =
            AxmlMessage::decode(&request.frame_bytes()).unwrap()
        else {
            panic!("a request decodes as a request")
        };
        let t = Tree::parse(std::str::from_utf8(&expr_xml.rendered()).unwrap()).unwrap();
        let e = Expr::from_xml(&t, t.root()).unwrap_err();
        assert!(
            matches!(
                e,
                CoreError::Query(axml_query::QueryError::Malformed(ref m)) if m.contains("<source>")
            ),
            "{e:?}"
        );
    }
}
