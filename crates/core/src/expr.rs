//! The algebra `E` of distributed AXML expressions — §3.1.
//!
//! > *"To model the various operations needed by our distributed data
//! > management applications, we introduce here a simple language of AXML
//! > expressions, denoted E."*
//!
//! The constructors map one-to-one to the paper's:
//!
//! | paper                                   | here |
//! |-----------------------------------------|------|
//! | `t@p`                                   | [`Expr::Tree`] |
//! | `d@p`, `d@any`                          | [`Expr::Doc`] |
//! | `q@p(t1, …, tn)`                        | [`Expr::Apply`] |
//! | `send(p2, e)`, `send([n@p…], e)`, `send(d@p2, e)` | [`Expr::Send`] with [`SendDest`] |
//! | `send(p2, q@p1)` (code shipping, def. (8)) | [`Expr::Deploy`] |
//! | `sc(p\|any, s, params, forws)`          | [`Expr::Sc`] |
//! | `eval@p(e)` as a *sub*-expression (rules (14)–(16)) | [`Expr::EvalAt`] |
//! | left-to-right sequencing                | [`Expr::Seq`] |
//!
//! Expressions serialize to XML trees (*"an expression can be viewed
//! (serialized) as an XML tree, whose root is labeled with the expression
//! constructor"*) — that serialization is what crosses the simulated wire
//! when computations are delegated, and its size is what the cost model
//! charges for shipping *plans*.

use crate::error::{CoreError, CoreResult};
use crate::sc::read_sc;
use axml_net::bytes::Cursor;
use axml_query::Query;
use axml_xml::escape::{write_attr, write_text};
use axml_xml::ids::{DocName, NodeAddr, PeerId, ServiceName};
use axml_xml::tree::{NodeId, Tree};
use std::fmt;

/// A peer reference: concrete, or the generic `any` of §2.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerRef {
    /// A concrete peer.
    At(PeerId),
    /// Any peer holding a member of the equivalence class.
    Any,
}

impl fmt::Display for PeerRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeerRef::At(p) => write!(f, "{p}"),
            PeerRef::Any => write!(f, "any"),
        }
    }
}

/// Reads `any` or `p<digits>` — exactly what `Display` writes, so a peer
/// reference has one text.
impl std::str::FromStr for PeerRef {
    type Err = CoreError;

    fn from_str(s: &str) -> CoreResult<PeerRef> {
        if s == "any" {
            return Ok(PeerRef::Any);
        }
        s.strip_prefix('p')
            .and_then(digits)
            .map(|n| PeerRef::At(PeerId(n)))
            .ok_or_else(|| CoreError::Malformed(format!("bad peer reference `{s}`")))
    }
}

/// A number off the wire, as the emitter writes one: ASCII digits and
/// nothing else (`str::parse` alone would also take a leading `+`).
fn digits<T: std::str::FromStr>(s: &str) -> Option<T> {
    s.bytes()
        .all(|b| b.is_ascii_digit())
        .then(|| s.parse().ok())?
}

/// A query together with the peer currently holding its definition; when a
/// query is evaluated elsewhere, the definition's wire size is charged from
/// `def_at` to the evaluation site (definitions (7)/(8)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocatedQuery {
    /// The (shippable) query.
    pub query: Query,
    /// Where its definition lives.
    pub def_at: PeerId,
}

impl LocatedQuery {
    /// Pair a query with its home peer.
    pub fn new(query: Query, def_at: PeerId) -> Self {
        LocatedQuery { query, def_at }
    }
}

/// Destinations of a `send` — §3.1's three data-sending forms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendDest {
    /// `send(p2, e)` — the value becomes the result of the enclosing
    /// delegated evaluation at `p2`.
    Peer(PeerId),
    /// `send([n1@p1, …], e)` — append a copy under each listed node.
    Nodes(Vec<NodeAddr>),
    /// `send(d@p2, e)` — install the value as a *new* document `d` at `p2`.
    NewDoc {
        /// Hosting peer.
        peer: PeerId,
        /// New document name (must be fresh at `peer`).
        name: DocName,
    },
}

/// An AXML expression.
#[derive(Debug, Clone)]
pub enum Expr {
    /// A literal tree pinned at a peer (`t@p`).
    Tree {
        /// The tree (may contain `sc` elements).
        tree: Tree,
        /// Its location.
        at: PeerId,
    },
    /// A document reference (`d@p` / `d@any`).
    Doc {
        /// Document (or equivalence-class) name.
        name: DocName,
        /// Location, possibly generic.
        at: PeerRef,
    },
    /// Query application `q(e1, …, en)`.
    Apply {
        /// The query and its definition's location.
        query: LocatedQuery,
        /// Argument expressions (arity must match).
        args: Vec<Expr>,
    },
    /// Data shipping.
    Send {
        /// Where to.
        dest: SendDest,
        /// What (evaluated first, then copied — definition (3) notes the
        /// copy).
        payload: Box<Expr>,
    },
    /// A service call element, as an expression (§2.3 extended syntax).
    Sc {
        /// Providing peer, possibly generic.
        provider: PeerRef,
        /// Service name.
        service: ServiceName,
        /// Parameter expressions.
        params: Vec<Expr>,
        /// Forward list; empty = results return to the caller (the
        /// default `forw` of §2.3).
        forward: Vec<NodeAddr>,
    },
    /// Delegated evaluation `eval@p(e)` used inside expressions by rules
    /// (14)–(16). The serialized `e` is shipped to `peer`, which evaluates
    /// it; an inner `send` addresses the results.
    EvalAt {
        /// The peer that will run the evaluation.
        peer: PeerId,
        /// The delegated expression.
        expr: Box<Expr>,
    },
    /// Code shipping `send(p2, q@p1)` — deploys the query as a new service
    /// (definition (8)).
    Deploy {
        /// Receiving peer.
        to: PeerId,
        /// The shipped query.
        query: LocatedQuery,
        /// Name of the service created at `to`.
        as_service: ServiceName,
    },
    /// Evaluate sub-expressions left to right; the value is the last one's
    /// (e.g. store a value with `send(d@p, …)`, then read `d@p`).
    Seq(Vec<Expr>),
}

impl Expr {
    /// Direct sub-expressions.
    pub fn children(&self) -> &[Expr] {
        match self {
            Expr::Tree { .. } | Expr::Doc { .. } | Expr::Deploy { .. } => &[],
            Expr::Apply { args, .. } => args,
            Expr::Send { payload, .. } => std::slice::from_ref(payload),
            Expr::Sc { params, .. } => params,
            Expr::EvalAt { expr, .. } => std::slice::from_ref(expr),
            Expr::Seq(es) => es,
        }
    }

    /// Number of nodes in the expression tree.
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(|c| c.size()).sum::<usize>()
    }

    /// All peers mentioned anywhere in the expression.
    pub fn mentioned_peers(&self) -> Vec<PeerId> {
        let mut out = Vec::new();
        self.collect_peers(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_peers(&self, out: &mut Vec<PeerId>) {
        match self {
            Expr::Tree { at, .. } => out.push(*at),
            Expr::Doc { at, .. } => {
                if let PeerRef::At(p) = at {
                    out.push(*p);
                }
            }
            Expr::Apply { query, args } => {
                out.push(query.def_at);
                for a in args {
                    a.collect_peers(out);
                }
            }
            Expr::Send { dest, payload } => {
                match dest {
                    SendDest::Peer(p) => out.push(*p),
                    SendDest::Nodes(addrs) => out.extend(addrs.iter().map(|a| a.peer)),
                    SendDest::NewDoc { peer, .. } => out.push(*peer),
                }
                payload.collect_peers(out);
            }
            Expr::Sc {
                provider,
                params,
                forward,
                ..
            } => {
                if let PeerRef::At(p) = provider {
                    out.push(*p);
                }
                out.extend(forward.iter().map(|a| a.peer));
                for p in params {
                    p.collect_peers(out);
                }
            }
            Expr::EvalAt { peer, expr } => {
                out.push(*peer);
                expr.collect_peers(out);
            }
            Expr::Deploy { to, query, .. } => {
                out.push(*to);
                out.push(query.def_at);
            }
            Expr::Seq(es) => {
                for e in es {
                    e.collect_peers(out);
                }
            }
        }
    }

    /// Rebuild this expression with sub-expression `index` (in
    /// [`Expr::children`] order) replaced: the node itself and its other
    /// children are copied, the child being replaced is not.
    pub fn with_child(&self, index: usize, child: Expr) -> Expr {
        fn spliced(items: &[Expr], index: usize, child: Expr) -> Vec<Expr> {
            let mut out = Vec::with_capacity(items.len());
            out.extend_from_slice(&items[..index]);
            out.push(child);
            out.extend_from_slice(&items[index + 1..]);
            out
        }
        match self {
            Expr::Apply { query, args } => Expr::Apply {
                query: query.clone(),
                args: spliced(args, index, child),
            },
            Expr::Send { dest, .. } => {
                assert_eq!(index, 0);
                Expr::Send {
                    dest: dest.clone(),
                    payload: Box::new(child),
                }
            }
            Expr::Sc {
                provider,
                service,
                params,
                forward,
            } => Expr::Sc {
                provider: *provider,
                service: service.clone(),
                params: spliced(params, index, child),
                forward: forward.clone(),
            },
            Expr::EvalAt { peer, .. } => {
                assert_eq!(index, 0);
                Expr::EvalAt {
                    peer: *peer,
                    expr: Box::new(child),
                }
            }
            Expr::Seq(es) => Expr::Seq(spliced(es, index, child)),
            Expr::Tree { .. } | Expr::Doc { .. } | Expr::Deploy { .. } => {
                panic!("leaf expression has no children")
            }
        }
    }

    /// Mark everything the expression *carries inline* — query
    /// definitions and literal trees — as residing at `to`. Called when
    /// the expression is shipped: its serialization contains those
    /// payloads, so after the transfer they live at the recipient and
    /// must be neither re-fetched (definition (5)) nor re-charged
    /// (definition (7)).
    ///
    /// Engine-only (`engine/defs.rs`, where the expression really is
    /// shipped and then evaluated at `to`): the cost model prices the
    /// same transfer without a copy to relocate, by handing `to` down its
    /// walk (`CostModel::est`, `Expr::shipped_size`) — `scripts/tier1.sh`
    /// greps that no other caller appears.
    pub fn relocate_query_defs(&mut self, to: PeerId) {
        match self {
            Expr::Apply { query, args } => {
                query.def_at = to;
                for a in args {
                    a.relocate_query_defs(to);
                }
            }
            Expr::Deploy { query, .. } => query.def_at = to,
            Expr::Send { payload, .. } => payload.relocate_query_defs(to),
            Expr::Sc { params, .. } => {
                for p in params {
                    p.relocate_query_defs(to);
                }
            }
            Expr::EvalAt { expr, .. } => expr.relocate_query_defs(to),
            Expr::Seq(es) => {
                for e in es {
                    e.relocate_query_defs(to);
                }
            }
            Expr::Tree { at, .. } => *at = to,
            Expr::Doc { .. } => {}
        }
    }

    /// Rewrite nested delegation *return* destinations from `old` to
    /// `new`.
    ///
    /// Inside an expression evaluated at site `s`, a sub-expression
    /// `EvalAt{p, Send{Peer(s), X}}` means "compute X at p and bring the
    /// value back *here*". When a rewrite rule moves the enclosing
    /// expression to a different evaluation site, those context-relative
    /// returns must follow it — other `send` destinations (third-party
    /// deliveries, node lists, new documents) are absolute and stay put.
    /// Traversal stops at `EvalAt` boundaries (their bodies run in their
    /// own context) except for the immediate return-send.
    pub fn retarget_returns(&mut self, old: PeerId, new: PeerId) {
        match self {
            Expr::EvalAt { expr, .. } => {
                if let Expr::Send {
                    dest: SendDest::Peer(d),
                    ..
                } = &mut **expr
                {
                    if *d == old {
                        *d = new;
                    }
                }
            }
            Expr::Apply { args, .. } => {
                for a in args {
                    a.retarget_returns(old, new);
                }
            }
            Expr::Sc { params, .. } => {
                for p in params {
                    p.retarget_returns(old, new);
                }
            }
            Expr::Seq(es) => {
                for e in es {
                    e.retarget_returns(old, new);
                }
            }
            Expr::Send { payload, .. } => payload.retarget_returns(old, new),
            Expr::Tree { .. } | Expr::Doc { .. } | Expr::Deploy { .. } => {}
        }
    }

    /// A canonical string identity (equality in tests, the text the
    /// engine ships) — the compact XML serialization (§3.1: an
    /// expression can be viewed as an XML tree), which
    /// [`Expr::from_xml`] reads back once it is parsed.
    pub fn fingerprint(&self) -> String {
        let mut text = String::new();
        self.emit(&mut text, None);
        text
    }

    /// Append [`Expr::fingerprint`]'s text to `out` — what a socket frame
    /// carries of a shipped expression — without building a `String`.
    pub(crate) fn write_fingerprint(&self, out: &mut Vec<u8>) {
        self.emit(&mut Bytes(out), None);
    }

    /// Wire size in bytes when this expression is shipped (delegations,
    /// requests): the length of [`Expr::fingerprint`], without the text.
    pub fn wire_size(&self) -> usize {
        self.shipped_size(None)
    }

    /// [`Expr::wire_size`] of this expression as it is once
    /// `relocate_query_defs(p)` has marked what it carries as living at
    /// `defs = Some(p)` (the peer numbers in the text change, so its
    /// length may), without making that copy.
    pub(crate) fn shipped_size(&self, defs: Option<PeerId>) -> usize {
        let mut count = ByteCount(0);
        self.emit(&mut count, defs);
        count.0
    }

    /// The optimizer's memo key and rule (13)'s argument comparison: 128
    /// bits that are equal for two expressions exactly when their
    /// [`Expr::fingerprint`] texts are (up to a 2⁻¹²⁸ collision). Not a
    /// hash *of* that text: everything but the queries is hashed as the
    /// text's bytes, and each query stands in it as its
    /// [`Query::wire_digest`] — taken once per query, not once per
    /// candidate plan that carries it. Where a query sits is fixed by the
    /// bytes around it, so equal texts still give equal keys.
    pub(crate) fn fingerprint_hash(&self) -> u128 {
        let mut key = MemoKey::default();
        self.emit(&mut key, None);
        key.finish()
    }

    // -------------------- the streaming emitter -----------------------

    fn emit(&self, sink: &mut impl WireSink, defs: Option<PeerId>) {
        self.write_wire(sink, defs)
            .expect("a String, a buffer, a byte count and a memo key accept every write");
    }

    /// Write the compact XML of this expression into `out` — the one
    /// description of the wire format; [`Expr::from_xml`] is its
    /// inverse. With `defs = Some(p)`, every peer that
    /// [`Expr::relocate_query_defs`] would overwrite is written as `p`.
    ///
    /// Runs once or more per candidate plan of every search, so it writes
    /// string pieces and stack-buffered digits only: no formatting
    /// machinery (`scripts/tier1.sh` greps for it), no allocation.
    fn write_wire<W: WireSink>(&self, out: &mut W, defs: Option<PeerId>) -> fmt::Result {
        match self {
            Expr::Tree { tree, at } => {
                out.write_str("<tree at=\"")?;
                write_peer_index(out, defs.unwrap_or(*at))?;
                out.write_str("\">")?;
                tree.write_compact(tree.root(), out)?;
                out.write_str("</tree>")
            }
            Expr::Doc { name, at } => {
                out.write_str("<doc name=\"")?;
                write_attr(out, name.as_str())?;
                out.write_str("\" at=\"")?;
                write_peer_ref(out, *at)?;
                out.write_str("\"/>")
            }
            Expr::Apply { query, args } => {
                out.write_str("<apply def-at=\"")?;
                write_peer_index(out, defs.unwrap_or(query.def_at))?;
                out.write_str("\">")?;
                out.query(&query.query)?;
                write_wrapped(out, "args", args, defs)?;
                out.write_str("</apply>")
            }
            Expr::Send { dest, payload } => {
                out.write_str("<send")?;
                match dest {
                    SendDest::Peer(p) => {
                        out.write_str(" peer=\"")?;
                        write_peer_index(out, *p)?;
                        out.write_str("\">")?;
                    }
                    SendDest::Nodes(addrs) => {
                        out.write_char('>')?;
                        write_forwards(out, addrs)?;
                    }
                    SendDest::NewDoc { peer, name } => {
                        out.write_str(" newdoc-peer=\"")?;
                        write_peer_index(out, *peer)?;
                        out.write_str("\" newdoc-name=\"")?;
                        write_attr(out, name.as_str())?;
                        out.write_str("\">")?;
                    }
                }
                out.write_str("<payload>")?;
                payload.write_wire(out, defs)?;
                out.write_str("</payload></send>")
            }
            Expr::Sc {
                provider,
                service,
                params,
                forward,
            } => {
                out.write_str("<sc><peer>")?;
                write_peer_ref(out, *provider)?;
                out.write_str("</peer><service>")?;
                write_text(out, service.as_str())?;
                out.write_str("</service>")?;
                for (i, p) in params.iter().enumerate() {
                    out.write_str("<param")?;
                    write_number(out, i as u64 + 1)?;
                    out.write_char('>')?;
                    p.write_wire(out, defs)?;
                    out.write_str("</param")?;
                    write_number(out, i as u64 + 1)?;
                    out.write_char('>')?;
                }
                write_forwards(out, forward)?;
                out.write_str("</sc>")
            }
            Expr::EvalAt { peer, expr } => {
                out.write_str("<evalat peer=\"")?;
                write_peer_index(out, *peer)?;
                out.write_str("\">")?;
                expr.write_wire(out, defs)?;
                out.write_str("</evalat>")
            }
            Expr::Deploy {
                to,
                query,
                as_service,
            } => {
                out.write_str("<deploy to=\"")?;
                write_peer_index(out, *to)?;
                out.write_str("\" as=\"")?;
                write_attr(out, as_service.as_str())?;
                out.write_str("\" def-at=\"")?;
                write_peer_index(out, defs.unwrap_or(query.def_at))?;
                out.write_str("\">")?;
                out.query(&query.query)?;
                out.write_str("</deploy>")
            }
            Expr::Seq(es) => write_wrapped(out, "seq", es, defs),
        }
    }

    // -------------------- reading the wire form back ------------------

    /// Parse an expression back from its XML form (§3.1): `node` of `t`
    /// is the constructor element of a parsed [`Expr::fingerprint`].
    pub fn from_xml(t: &Tree, node: NodeId) -> CoreResult<Expr> {
        let label = t
            .label(node)
            .ok_or_else(|| CoreError::Malformed("expression node is text".into()))?
            .to_string();
        let peer_attr = |attr: &str| -> CoreResult<PeerId> {
            t.attr(node, attr)
                .and_then(digits)
                .map(PeerId)
                .ok_or_else(|| CoreError::Malformed(format!("<{label}> lacks a numeric @{attr}")))
        };
        match label.as_str() {
            "tree" => {
                let at = peer_attr("at")?;
                let children = t.children(node);
                if children.len() != 1 {
                    return Err(CoreError::Malformed(
                        "<tree> must wrap exactly one tree".into(),
                    ));
                }
                Ok(Expr::Tree {
                    // Zero-copy: share the decoded message arena rather
                    // than re-materializing the literal tree.
                    tree: t.subtree(children[0])?,
                    at,
                })
            }
            "doc" => {
                let name = t
                    .attr(node, "name")
                    .ok_or_else(|| CoreError::Malformed("<doc> lacks @name".into()))?;
                let at = t
                    .attr(node, "at")
                    .ok_or_else(|| CoreError::Malformed("<doc> lacks @at".into()))?;
                Ok(Expr::Doc {
                    name: DocName::new(name),
                    at: at.parse()?,
                })
            }
            "apply" => {
                let def_at = peer_attr("def-at")?;
                let qnode = t
                    .first_child_labeled(node, "query")
                    .ok_or_else(|| CoreError::Malformed("<apply> lacks <query>".into()))?;
                let query = Query::from_xml(t, qnode)?;
                let argsel = t
                    .first_child_labeled(node, "args")
                    .ok_or_else(|| CoreError::Malformed("<apply> lacks <args>".into()))?;
                let args = t
                    .children(argsel)
                    .iter()
                    .map(|&c| Expr::from_xml(t, c))
                    .collect::<CoreResult<Vec<_>>>()?;
                Ok(Expr::Apply {
                    query: LocatedQuery::new(query, def_at),
                    args,
                })
            }
            "send" => {
                let payload_el = t
                    .first_child_labeled(node, "payload")
                    .ok_or_else(|| CoreError::Malformed("<send> lacks <payload>".into()))?;
                let inner = t.children(payload_el);
                if inner.len() != 1 {
                    return Err(CoreError::Malformed(
                        "<payload> must wrap exactly one expression".into(),
                    ));
                }
                let payload = Box::new(Expr::from_xml(t, inner[0])?);
                let dest = if t.attr(node, "peer").is_some() {
                    SendDest::Peer(peer_attr("peer")?)
                } else if t.attr(node, "newdoc-peer").is_some() {
                    SendDest::NewDoc {
                        peer: peer_attr("newdoc-peer")?,
                        name: DocName::new(t.attr(node, "newdoc-name").ok_or_else(|| {
                            CoreError::Malformed("<send> lacks @newdoc-name".into())
                        })?),
                    }
                } else {
                    let addrs = t
                        .children_labeled(node, "forw")
                        .map(|c| parse_addr(&t.text(c)))
                        .collect::<CoreResult<Vec<_>>>()?;
                    if addrs.is_empty() {
                        return Err(CoreError::Malformed("<send> lacks a destination".into()));
                    }
                    SendDest::Nodes(addrs)
                };
                Ok(Expr::Send { dest, payload })
            }
            "sc" => {
                let (provider, service, params, forward) =
                    read_sc(t, node, |param| Expr::from_xml(t, param))?;
                Ok(Expr::Sc {
                    provider,
                    service,
                    params,
                    forward,
                })
            }
            "evalat" => {
                let peer = peer_attr("peer")?;
                let inner = t.children(node);
                if inner.len() != 1 {
                    return Err(CoreError::Malformed(
                        "<evalat> must wrap exactly one expression".into(),
                    ));
                }
                Ok(Expr::EvalAt {
                    peer,
                    expr: Box::new(Expr::from_xml(t, inner[0])?),
                })
            }
            "deploy" => {
                let to = peer_attr("to")?;
                let def_at = peer_attr("def-at")?;
                let as_service = ServiceName::new(
                    t.attr(node, "as")
                        .ok_or_else(|| CoreError::Malformed("<deploy> lacks @as".into()))?,
                );
                let qnode = t
                    .first_child_labeled(node, "query")
                    .ok_or_else(|| CoreError::Malformed("<deploy> lacks <query>".into()))?;
                Ok(Expr::Deploy {
                    to,
                    query: LocatedQuery::new(Query::from_xml(t, qnode)?, def_at),
                    as_service,
                })
            }
            "seq" => {
                let es = t
                    .children(node)
                    .iter()
                    .map(|&c| Expr::from_xml(t, c))
                    .collect::<CoreResult<Vec<_>>>()?;
                Ok(Expr::Seq(es))
            }
            other => Err(CoreError::Malformed(format!(
                "unknown expression constructor <{other}>"
            ))),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Tree { tree, at } => {
                write!(f, "tree[{}B]@{at}", tree.serialized_size())
            }
            Expr::Doc { name, at } => write!(f, "{name}@{at}"),
            Expr::Apply { query, args } => {
                write!(f, "{}@{}(", query.query, query.def_at)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Send { dest, payload } => match dest {
                SendDest::Peer(p) => write!(f, "send({p}, {payload})"),
                SendDest::Nodes(a) => {
                    write!(f, "send([")?;
                    for (i, n) in a.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{n}")?;
                    }
                    write!(f, "], {payload})")
                }
                SendDest::NewDoc { peer, name } => {
                    write!(f, "send({name}@{peer}, {payload})")
                }
            },
            Expr::Sc {
                provider,
                service,
                params,
                forward,
            } => {
                write!(f, "sc({provider}, {service}, [")?;
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "], [")?;
                for (i, a) in forward.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, "])")
            }
            Expr::EvalAt { peer, expr } => write!(f, "eval@{peer}({expr})"),
            Expr::Deploy {
                to,
                query,
                as_service,
            } => write!(f, "deploy({to}, {} as {as_service})", query.query),
            Expr::Seq(es) => {
                write!(f, "seq(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// `<label>` around the given expressions; `<label/>` around none.
fn write_wrapped<W: WireSink>(
    out: &mut W,
    label: &str,
    exprs: &[Expr],
    defs: Option<PeerId>,
) -> fmt::Result {
    out.write_char('<')?;
    out.write_str(label)?;
    if exprs.is_empty() {
        return out.write_str("/>");
    }
    out.write_char('>')?;
    for e in exprs {
        e.write_wire(out, defs)?;
    }
    out.write_str("</")?;
    out.write_str(label)?;
    out.write_char('>')
}

/// One `<forw>` element per address, each the escaped text of
/// [`format_addr`].
fn write_forwards<W: fmt::Write>(out: &mut W, addrs: &[NodeAddr]) -> fmt::Result {
    for a in addrs {
        out.write_str("<forw>")?;
        write_text(out, a.doc.as_str())?;
        out.write_char('#')?;
        write_number(out, a.node.index() as u64)?;
        out.write_str("@p")?;
        write_number(out, u64::from(a.peer.0))?;
        out.write_str("</forw>")?;
    }
    Ok(())
}

/// `n` in decimal, from a stack buffer.
fn write_number<W: fmt::Write>(out: &mut W, mut n: u64) -> fmt::Result {
    let mut buf = [0u8; 20]; // u64::MAX has 20 digits
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.write_str(std::str::from_utf8(&buf[start..]).expect("ASCII digits"))
}

/// A peer as the bare number attributes carry.
fn write_peer_index<W: fmt::Write>(out: &mut W, p: PeerId) -> fmt::Result {
    write_number(out, u64::from(p.0))
}

/// A peer reference as its `Display` text: `any` or `p<digits>`.
fn write_peer_ref<W: fmt::Write>(out: &mut W, at: PeerRef) -> fmt::Result {
    match at {
        PeerRef::Any => out.write_str("any"),
        PeerRef::At(p) => {
            out.write_char('p')?;
            write_peer_index(out, p)
        }
    }
}

/// What the emitter writes into: pieces of text, and — where a query's
/// definition goes — the query itself, so that a sink which needs less
/// than its text (a length, a key) takes what the query already knows.
trait WireSink: fmt::Write {
    /// `q`'s [`Query::wire_xml`] goes here.
    fn query(&mut self, q: &Query) -> fmt::Result;
}

impl WireSink for String {
    fn query(&mut self, q: &Query) -> fmt::Result {
        self.push_str(q.wire_xml());
        Ok(())
    }
}

/// Emitter sink: the bytes themselves, appended to a buffer.
struct Bytes<'b>(&'b mut Vec<u8>);

impl fmt::Write for Bytes<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

impl WireSink for Bytes<'_> {
    fn query(&mut self, q: &Query) -> fmt::Result {
        self.0.extend_from_slice(q.wire_xml().as_bytes());
        Ok(())
    }
}

/// Emitter sink: the number of bytes written.
struct ByteCount(usize);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

impl WireSink for ByteCount {
    fn query(&mut self, q: &Query) -> fmt::Result {
        self.0 += q.wire_size();
        Ok(())
    }
}

/// Emitter sink: a 128-bit hash of the bytes written, independent of how
/// the writes were cut, with each query folded in as its digest. Read
/// eight bytes to a round: a key is taken of every candidate of every
/// search, and a byte-wise 128-bit FNV is a wide multiply per byte.
#[derive(Default)]
struct MemoKey {
    state: u128,
    /// Bytes written since the last whole word, lowest first.
    word: u64,
    /// How many of them (0–7).
    pending: u32,
    /// Bytes written in all: told apart at the end, a flushed `ab` and
    /// an `ab` followed by zero bytes are.
    len: u64,
}

impl MemoKey {
    /// One round: a multiply by a dense odd constant (a bijection that
    /// carries every input bit upwards) and a fold of the high half back
    /// onto the low one (a bijection too), so that no bit of `word` stays
    /// where the next round's word could cancel it.
    fn mix(&mut self, word: u64) {
        const GOLDEN: u128 = 0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835;
        let h = (self.state ^ u128::from(word)).wrapping_mul(GOLDEN);
        self.state = h ^ (h >> 64);
    }

    fn flush(&mut self) {
        if self.pending > 0 {
            self.mix(self.word);
            (self.word, self.pending) = (0, 0);
        }
    }

    /// A whole word, after whatever text came before it.
    fn word(&mut self, word: u64) {
        self.flush();
        self.mix(word);
    }

    /// A 128-bit digest, as two words.
    fn digest(&mut self, digest: u128) {
        self.word(digest as u64);
        self.word((digest >> 64) as u64);
    }

    fn finish(mut self) -> u128 {
        self.flush();
        self.mix(self.len);
        self.state
    }
}

impl fmt::Write for MemoKey {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.len += s.len() as u64;
        let mut bytes = Cursor::new(s.as_bytes());
        // Whole words go in at once, spliced behind the pending bytes…
        while let Ok(next) = bytes.u64() {
            if self.pending == 0 {
                self.mix(next);
            } else {
                let held = 8 * self.pending;
                self.mix(self.word | next << held);
                self.word = next >> (64 - held);
            }
        }
        // …and what is left of the piece waits for the next one.
        for &b in bytes.take(bytes.remaining()).expect("what remains") {
            self.word |= u64::from(b) << (8 * self.pending);
            self.pending += 1;
            if self.pending == 8 {
                self.flush();
            }
        }
        Ok(())
    }
}

impl WireSink for MemoKey {
    fn query(&mut self, q: &Query) -> fmt::Result {
        // Where a query sits is fixed by the bytes before it, so closing
        // the open word here cuts equal texts equally.
        self.digest(q.wire_digest());
        Ok(())
    }
}

/// Format a node address for the wire: `doc#index@pN`.
pub fn format_addr(a: &NodeAddr) -> String {
    format!("{}#{}@p{}", a.doc, a.node.index(), a.peer.0)
}

/// Parse a wire node address.
pub fn parse_addr(s: &str) -> CoreResult<NodeAddr> {
    let (doc, rest) = s
        .split_once('#')
        .ok_or_else(|| CoreError::Malformed(format!("bad node address `{s}`")))?;
    let (idx, peer) = rest
        .split_once("@p")
        .ok_or_else(|| CoreError::Malformed(format!("bad node address `{s}`")))?;
    let node = digits::<usize>(idx)
        .ok_or_else(|| CoreError::Malformed(format!("bad node index in `{s}`")))?;
    let peer =
        digits::<u32>(peer).ok_or_else(|| CoreError::Malformed(format!("bad peer in `{s}`")))?;
    // The index came off the wire: an overflow is a typed decode error
    // (`CoreError::Xml(IndexOverflow)`), not a panic.
    Ok(NodeAddr::new(PeerId(peer), doc, NodeId::from_index(node)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query() -> Query {
        Query::parse(
            "sel",
            r#"for $p in $0//pkg where $p/size/text() > 10 return {$p}"#,
        )
        .unwrap()
    }

    fn samples() -> Vec<Expr> {
        let q = LocatedQuery::new(sample_query(), PeerId(0));
        vec![
            Expr::Tree {
                tree: Tree::parse("<a><b>1</b></a>").unwrap(),
                at: PeerId(2),
            },
            Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(PeerId(1)),
            },
            Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::Any,
            },
            Expr::Apply {
                query: q.clone(),
                args: vec![Expr::Doc {
                    name: "catalog".into(),
                    at: PeerRef::At(PeerId(1)),
                }],
            },
            Expr::Send {
                dest: SendDest::Peer(PeerId(0)),
                payload: Box::new(Expr::Doc {
                    name: "d".into(),
                    at: PeerRef::At(PeerId(1)),
                }),
            },
            Expr::Send {
                dest: SendDest::Nodes(vec![
                    NodeAddr::new(PeerId(1), "d1", NodeId::from_index(4).unwrap()),
                    NodeAddr::new(PeerId(2), "d2", NodeId::from_index(0).unwrap()),
                ]),
                payload: Box::new(Expr::Tree {
                    tree: Tree::parse("<x/>").unwrap(),
                    at: PeerId(0),
                }),
            },
            Expr::Send {
                dest: SendDest::NewDoc {
                    peer: PeerId(2),
                    name: "fresh".into(),
                },
                payload: Box::new(Expr::Doc {
                    name: "d".into(),
                    at: PeerRef::At(PeerId(0)),
                }),
            },
            Expr::Sc {
                provider: PeerRef::Any,
                service: "lookup".into(),
                params: vec![Expr::Tree {
                    tree: Tree::parse("<q>vim</q>").unwrap(),
                    at: PeerId(0),
                }],
                forward: vec![NodeAddr::new(
                    PeerId(0),
                    "inbox",
                    NodeId::from_index(0).unwrap(),
                )],
            },
            Expr::EvalAt {
                peer: PeerId(1),
                expr: Box::new(Expr::Send {
                    dest: SendDest::Peer(PeerId(0)),
                    payload: Box::new(Expr::Doc {
                        name: "d".into(),
                        at: PeerRef::At(PeerId(1)),
                    }),
                }),
            },
            Expr::Deploy {
                to: PeerId(2),
                query: q,
                as_service: "sel-svc".into(),
            },
            Expr::Seq(vec![
                Expr::Send {
                    dest: SendDest::NewDoc {
                        peer: PeerId(0),
                        name: "tmp".into(),
                    },
                    payload: Box::new(Expr::Doc {
                        name: "d".into(),
                        at: PeerRef::At(PeerId(1)),
                    }),
                },
                Expr::Doc {
                    name: "tmp".into(),
                    at: PeerRef::At(PeerId(0)),
                },
            ]),
        ]
    }

    #[test]
    fn xml_roundtrip_all_constructors() {
        for e in samples() {
            let xml = Tree::parse(&e.fingerprint()).unwrap();
            let back = Expr::from_xml(&xml, xml.root())
                .unwrap_or_else(|err| panic!("{err} for {}", xml.serialize()));
            assert_eq!(e.fingerprint(), back.fingerprint(), "{e}");
        }
    }

    #[test]
    fn addresses_roundtrip() {
        let a = NodeAddr::new(PeerId(3), "doc-x", NodeId::from_index(42).unwrap());
        assert_eq!(parse_addr(&format_addr(&a)).unwrap(), a);
        assert!(parse_addr("garbage").is_err());
        assert!(parse_addr("d#x@p1").is_err());
        assert!(parse_addr("d#1@px").is_err());
    }

    #[test]
    fn children_and_with_child() {
        let e = samples().remove(3); // Apply
        assert_eq!(e.children().len(), 1);
        let replaced = e.with_child(
            0,
            Expr::Doc {
                name: "other".into(),
                at: PeerRef::At(PeerId(2)),
            },
        );
        match &replaced {
            Expr::Apply { args, .. } => {
                assert!(matches!(&args[0], Expr::Doc { name, .. } if name.as_str() == "other"));
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn size_counts_nodes() {
        let es = samples();
        assert_eq!(es[0].size(), 1);
        assert_eq!(es[3].size(), 2);
        assert_eq!(es[10].size(), 4);
    }

    #[test]
    fn mentioned_peers_collected() {
        let e = samples().remove(8); // EvalAt(1, Send(0, Doc@1))
        assert_eq!(e.mentioned_peers(), vec![PeerId(0), PeerId(1)]);
    }

    #[test]
    fn display_is_readable() {
        let e = samples().remove(4);
        assert_eq!(e.to_string(), "send(p0, d@p1)");
        let sc = samples().remove(7);
        assert!(sc.to_string().starts_with("sc(any, lookup"));
    }

    #[test]
    fn wire_size_positive_and_stable() {
        let mut hashes = std::collections::HashSet::new();
        for e in samples() {
            assert!(e.wire_size() > 10, "{e}");
            assert_eq!(e.wire_size(), e.fingerprint().len());
            // the key stands for the text: the same expression read back
            // from it has the same key, another sample has another
            let xml = Tree::parse(&e.fingerprint()).unwrap();
            let back = Expr::from_xml(&xml, xml.root()).unwrap();
            assert_eq!(e.fingerprint_hash(), back.fingerprint_hash(), "{e}");
            assert!(hashes.insert(e.fingerprint_hash()), "{e}");
        }
    }

    /// The key sink takes whole words at once where a piece has them and
    /// single bytes where it has not: however a text is cut into pieces,
    /// its key is the same — and another text's is another.
    #[test]
    fn the_memo_key_does_not_depend_on_how_writes_are_cut() {
        fn key_of<'a>(pieces: impl Iterator<Item = &'a str>) -> u128 {
            let mut key = MemoKey::default();
            for piece in pieces {
                fmt::Write::write_str(&mut key, piece).unwrap();
            }
            key.finish()
        }
        let text: String = samples().iter().map(Expr::fingerprint).collect();
        assert!(text.is_ascii() && text.len() > 1000);
        let whole = key_of(std::iter::once(text.as_str()));
        for step in [1, 2, 3, 7, 8, 9, 11, 16, 23, 64] {
            let cut = text.as_bytes().chunks(step);
            let key = key_of(cut.map(|c| std::str::from_utf8(c).unwrap()));
            assert_eq!(key, whole, "cut every {step} bytes");
        }
        // uneven cuts, empty pieces among them
        let (head, tail) = text.split_at(13);
        assert_eq!(key_of([head, "", tail].into_iter()), whole);
        for i in [0, 7, 8, 500, text.len() - 1] {
            let mut other = text.clone().into_bytes();
            other[i] ^= 1;
            let other = String::from_utf8(other).unwrap();
            assert_ne!(key_of(std::iter::once(other.as_str())), whole, "byte {i}");
        }
        assert_ne!(key_of(std::iter::once(&text[1..])), whole);
    }

    #[test]
    fn numbers_are_written_as_display_writes_them() {
        for n in [0, 1, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX] {
            let mut text = String::new();
            write_number(&mut text, n).unwrap();
            assert_eq!(text, n.to_string());
        }
    }

    /// `shipped_size(Some(p))` is the wire size of the relocated copy:
    /// the override reaches every peer `relocate_query_defs` rewrites,
    /// at every depth, and nothing else.
    #[test]
    fn shipped_size_is_the_relocated_copys_wire_size() {
        for e in samples() {
            for to in [PeerId(0), PeerId(7), PeerId(1234)] {
                let mut moved = e.clone();
                moved.relocate_query_defs(to);
                assert_eq!(e.shipped_size(Some(to)), moved.wire_size(), "{e} → {to}");
            }
        }
    }

    #[test]
    fn from_xml_rejects_malformed() {
        for bad in [
            "<unknown/>",
            "<tree/>",
            "<doc/>",
            "<send><payload><doc name=\"d\" at=\"0\"/></payload></send>",
            "<apply def-at=\"0\"/>",
            "<evalat peer=\"0\"/>",
            "<sc/>",
            "<deploy to=\"1\"/>",
        ] {
            let t = Tree::parse(bad).unwrap();
            assert!(Expr::from_xml(&t, t.root()).is_err(), "{bad}");
        }
    }
}
