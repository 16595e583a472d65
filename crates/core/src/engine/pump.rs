//! The core pump: what travels ([`Wire`], `Intent`), what waits
//! (`Runnable`, `Cont`, result slots) and the loop that drives an
//! `EvalSession` to quiescence — drain ready tasks, then deliver the
//! earliest batch of in-flight messages from the session's one arrival
//! buffer, receiver by receiver, repeat.
//!
//! A session moves a message without allocating once its buffers have
//! grown: the arrival buffer, the ready queue, the slot table, the parts
//! every slot's results land in and the inputs a resumed continuation
//! reads are buffers the session keeps, and the system keeps its last
//! finished session for the next one to reuse ([`AxmlSystem::blocking`]).
//!
//! A delivery is the message as it travelled, and its receiver reads it
//! (`receive`): what to evaluate or apply, which service to run for whom,
//! where its answers go and what to install all come out of the message.
//! The `Intent` beside it holds only what the wire does not carry yet.
//! A send to oneself is received at once, so `receive` writes every effect.
//!
//! The pump knows nothing about retry or `@any` failover: sends go
//! through [`super::send`], generic references through [`super::any`].

use super::defs::ScCall;
use crate::error::{CoreError, CoreResult, EngineError};
use crate::expr::{Expr, PeerRef};
use crate::message::{AxmlMessage, Body};
use crate::service::Service;
use crate::system::AxmlSystem;
use axml_net::{FramedPayload, Payload};
use axml_obs::{DataTag, TraceEvent};
use axml_prng::SplitMix64;
use axml_query::Query;
use axml_xml::ids::{DocName, NodeAddr, PeerId, ServiceName};
use axml_xml::tree::{NodeId, Tree};
use std::collections::VecDeque;

/// The room, in entries, each buffer of a finished session keeps for the
/// next one: an ordinary session fits, and the rare one that fanned out
/// to thousands of calls (a document's activation) hands what it grew
/// back instead of holding it for the system's lifetime.
const KEPT_ROOM: usize = 256;

/// A result destination: `(slot, part)` inside the session's slot table.
pub(crate) type Out = (usize, usize);

/// What travels on a link: the charged message plus what its receiver
/// needs that the message does not carry yet. Only `msg` contributes to
/// the wire size, and only `msg` holds the trees in transit.
pub struct Wire {
    pub(crate) msg: AxmlMessage,
    pub(crate) intent: Intent,
}

impl Payload for Wire {
    fn wire_size(&self) -> usize {
        self.msg.wire_size()
    }
}

impl FramedPayload for Wire {
    /// Only the [`AxmlMessage`] crosses the wire. The receiver reads
    /// everything it acts on from the message, except what the `Intent`
    /// still holds: the slots a reply fills or a definition applies to, a
    /// request's reply tag, a fetched tree literal, a forwarded graft's
    /// address and a replica update's document — what the frame lacks.
    fn frame_payload(&self, out: &mut Vec<u8>) {
        self.msg.write_frame(out)
    }
}

impl std::fmt::Debug for Wire {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Wire({})", self.msg.kind())
    }
}

/// What a message's receiver needs beyond the message itself: each
/// variant is a fact the frame does not carry yet. Everything else —
/// the expression or query a request or remote definition ships, the
/// service, parameters, forward list and call id of an `Invoke`, the name
/// of a new document, a deployed query, and the caller or reply peer
/// (the sender) — the receiver reads off the message (`receive`).
pub(crate) enum Intent {
    /// No effect at the receiver: a send's data, or the accounting-only
    /// `Invoke` of a continuous activation.
    None,
    /// The slot the message's effect fills: a reply's forest, a call's
    /// answer (an `Invoke`), or ∅ once a document or query is installed.
    Reply { out: Out },
    /// Definition (7): the slot of the arguments a `Data(QueryDef)`'s
    /// query is applied to, and the slot its answer fills.
    Apply { args: usize, out: Out },
    /// A request shipping an expression: the tag its reply carries
    /// (definition (5)'s fetch or a delegation) and the slot it fills.
    Request { tag: DataTag, out: Out },
    /// A `<fetch ref=…>` request: the tree literal the reference names.
    FetchTree { tree: Tree, out: Out },
    /// Definition (4) / forward lists: graft the forest under `addr`.
    Graft { addr: NodeAddr, notify: Out },
    /// Replica maintenance: the receiving replica's document, whose
    /// subscriptions the update pumps.
    ReplicaFeed { doc: DocName },
}

/// One fixed-arity result slot: its parts are the session's
/// `parts[first..first + len]`, and it is ready when every one is filled.
struct Slot {
    first: usize,
    len: usize,
    missing: usize,
    /// The continuation (and the peer it runs at) parked on this slot;
    /// the fill of the last part resumes it.
    parked: Option<(PeerId, Cont)>,
}

/// A task on the ready queue.
pub(crate) enum Runnable {
    /// Decompose `expr` at a peer; its value lands in `out`.
    Eval { at: PeerId, expr: Expr, out: Out },
    /// Resume a continuation whose inputs — the parts of `slot` — are
    /// all available.
    Resume {
        peer: PeerId,
        cont: Cont,
        slot: usize,
    },
}

impl Runnable {
    fn peer(&self) -> PeerId {
        match self {
            Runnable::Eval { at, .. } => *at,
            Runnable::Resume { peer, .. } => *peer,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Runnable::Eval { .. } => "eval",
            Runnable::Resume { cont, .. } => cont.name(),
        }
    }
}

/// The suspended remainder of one definition's evaluation.
pub(crate) enum Cont {
    /// Definitions (2)/(7): run the local query, or the one a
    /// `Data(QueryDef)` brought, over the gathered argument forests.
    ApplyFinish { query: Query, out: Out },
    /// Definition (6): all `sc` parameters evaluated — start the call.
    ScReady {
        provider: PeerRef,
        service: ServiceName,
        forward: Vec<NodeAddr>,
        out: Out,
    },
    /// Definition (3): payload evaluated — ship it.
    SendPeer { dest: PeerId, out: Out },
    /// Definition (4): payload evaluated — deliver to the node list.
    SendNodes { addrs: Vec<NodeAddr>, out: Out },
    /// `send(d@p, t)`: payload evaluated — ship the new document.
    SendNewDoc {
        peer: PeerId,
        name: DocName,
        out: Out,
    },
    /// Definition (1): embedded `sc` results ready — graft them back
    /// into the copied tree (`grafts[i]` is part `i`'s parent; `None`
    /// for forward-listed calls whose results landed elsewhere).
    TreeFinish {
        tree: Tree,
        grafts: Vec<Option<NodeId>>,
        out: Out,
    },
    /// Rule (13): one sequence step finished — run the rest.
    SeqStep { rest: VecDeque<Expr>, out: Out },
    /// Remote fetch/delegation: the inner result must travel back.
    ReplyData {
        reply_to: PeerId,
        tag: DataTag,
        remote_out: Out,
    },
    /// Completion gate: inputs arrived, the observable value is ∅.
    Discard { out: Out },
}

impl Cont {
    fn name(&self) -> &'static str {
        match self {
            Cont::ApplyFinish { .. } => "apply",
            Cont::ScReady { .. } => "sc",
            Cont::SendPeer { .. } => "send",
            Cont::SendNodes { .. } => "send-nodes",
            Cont::SendNewDoc { .. } => "send-newdoc",
            Cont::TreeFinish { .. } => "tree",
            Cont::SeqStep { .. } => "seq",
            Cont::ReplyData { .. } => "reply",
            Cont::Discard { .. } => "fill",
        }
    }
}

/// A message popped off the network, waiting in the arrival buffer as it
/// travelled.
pub(crate) struct Delivery {
    from: PeerId,
    to: PeerId,
    at: f64,
    wire: Wire,
}

/// One evaluation session: everything the engine needs besides Σ.
///
/// Sessions are pure data — all logic lives in `AxmlSystem` methods so
/// the loop can borrow peers, network and observability freely. Its
/// buffers outlive it: the system keeps the last finished session,
/// emptied, and the next one reuses their room.
pub(crate) struct EvalSession {
    slots: Vec<Slot>,
    /// Every slot's parts, slot after slot.
    parts: Vec<Option<Vec<Tree>>>,
    /// The inputs of the continuation being resumed, taken out of its
    /// slot: one buffer for every resume.
    inputs: Vec<Vec<Tree>>,
    ready: VecDeque<Runnable>,
    /// The arrivals of the earliest pending instant, in delivery order:
    /// by receiver index, and per receiver in the order the session PRNG
    /// shuffled the batch into. One buffer for every receiver, so a
    /// session over 10⁵ peers costs O(arrivals).
    arrivals: Vec<Delivery>,
    rng: SplitMix64,
    /// Result trees delivered by arrival-side subscription pumps
    /// (replica maintenance accumulates its downstream count here).
    pub(crate) delivered: usize,
}

impl EvalSession {
    /// Allocate a slot with `parts` ordered parts (0 parts = ready now).
    pub(crate) fn new_slot(&mut self, parts: usize) -> usize {
        let first = self.parts.len();
        self.parts.resize_with(first + parts, || None);
        self.slots.push(Slot {
            first,
            len: parts,
            missing: parts,
            parked: None,
        });
        self.slots.len() - 1
    }

    /// The parts of `slot`.
    fn parts_of(&mut self, slot: usize) -> &mut [Option<Vec<Tree>>] {
        let Slot { first, len, .. } = self.slots[slot];
        &mut self.parts[first..first + len]
    }

    /// Take the first part of a finished slot (the session's result).
    ///
    /// A part that was never filled means a delivery was lost somewhere
    /// between the peers — that is a [`EngineError::LostResult`], not an
    /// empty answer. (A part filled with an empty forest is a perfectly
    /// valid result and comes back as `Ok(vec![])`.)
    pub(crate) fn take(&mut self, slot: usize) -> Result<Vec<Tree>, EngineError> {
        self.parts_of(slot)
            .first_mut()
            .and_then(Option::take)
            .ok_or(EngineError::LostResult { slot, part: 0 })
    }

    /// Take the parts of a finished slot into `input`, in part order.
    fn gather(&mut self, slot: usize, input: &mut Vec<Vec<Tree>>) -> Result<(), EngineError> {
        for (part, p) in self.parts_of(slot).iter_mut().enumerate() {
            input.push(p.take().ok_or(EngineError::LostResult { slot, part })?);
        }
        Ok(())
    }

    /// Drop everything the session holds — a tree kept here would pin
    /// its arena, and a later write to it would copy the whole arena —
    /// keeping up to [`KEPT_ROOM`] entries of the room its buffers grew.
    fn clear(&mut self) {
        self.slots.clear();
        self.parts.clear();
        self.inputs.clear();
        self.ready.clear();
        self.arrivals.clear();
        self.slots.shrink_to(KEPT_ROOM);
        self.parts.shrink_to(KEPT_ROOM);
        self.inputs.shrink_to(KEPT_ROOM);
        self.ready.shrink_to(KEPT_ROOM);
        self.arrivals.shrink_to(KEPT_ROOM);
    }
}

impl AxmlSystem {
    /// `eval@at(expr)` — evaluate the expression at a peer, returning the
    /// forest left there. Blocks until the session is quiescent (every
    /// task run, every in-flight message delivered).
    pub fn eval(&mut self, at: PeerId, expr: &Expr) -> CoreResult<Vec<Tree>> {
        self.check_peer(at)?;
        self.blocking(
            |sys, s| {
                let root = s.new_slot(1);
                sys.schedule(
                    s,
                    Runnable::Eval {
                        at,
                        expr: expr.clone(),
                        out: (root, 0),
                    },
                );
                Ok(root)
            },
            |s, root| Ok(s.take(root)?),
        )
    }

    /// The shape of every blocking entry point: open a session, let
    /// `seed` put work into it, drive it to quiescence, and answer what
    /// `finish` takes from the finished session and `seed`'s value. If
    /// `seed` itself fails the messages it already sent are dropped from
    /// the network. Either way the session is handed back, emptied, for
    /// the next one to reuse.
    pub(crate) fn blocking<T, R>(
        &mut self,
        seed: impl FnOnce(&mut Self, &mut EvalSession) -> CoreResult<T>,
        finish: impl FnOnce(&mut EvalSession, T) -> CoreResult<R>,
    ) -> CoreResult<R> {
        let mut s = self.new_session();
        let answer = match seed(self, &mut s) {
            Ok(v) => self.run_session(&mut s).and_then(|()| finish(&mut s, v)),
            Err(e) => {
                self.net.clear_in_flight();
                Err(e)
            }
        };
        s.clear();
        self.kept_session = Some(s);
        answer
    }

    /// A session with a deterministic, per-session PRNG seed, in the
    /// buffers of the last finished one when there is one.
    fn new_session(&mut self) -> EvalSession {
        let n = self.sessions;
        self.sessions += 1;
        let (slots, parts, inputs, ready, arrivals) = match self.kept_session.take() {
            Some(s) => (s.slots, s.parts, s.inputs, s.ready, s.arrivals),
            None => Default::default(),
        };
        EvalSession {
            slots,
            parts,
            inputs,
            ready,
            arrivals,
            rng: SplitMix64::new(self.engine_seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            delivered: 0,
        }
    }

    /// Put a task on the ready queue (emitting [`TraceEvent::TaskScheduled`]).
    pub(crate) fn schedule(&mut self, s: &mut EvalSession, task: Runnable) {
        let peer = task.peer();
        let name = task.name();
        let at_ms = self.net.now_ms();
        self.obs.emit(|| TraceEvent::TaskScheduled {
            peer,
            task: name.into(),
            at_ms,
        });
        s.ready.push_back(task);
    }

    /// Drive the session to quiescence: run ready tasks, then deliver
    /// the earliest batch of in-flight messages, until both are empty.
    /// On error the network's in-flight queue is cleared (statistics are
    /// kept — the bytes were charged when they entered the link). Either
    /// way the trace sink is flushed so file-backed sinks are durable up
    /// to every quiescence point. A failed flush leaves the evaluation's
    /// answer alone: `Obs` keeps it, and `clear_trace_sink` returns it.
    pub(crate) fn run_session(&mut self, s: &mut EvalSession) -> CoreResult<()> {
        let r = self.drain(s);
        if r.is_err() {
            self.net.clear_in_flight();
        }
        let _ = self.obs.flush();
        r
    }

    /// The session loop: run ready tasks in FIFO order (the tasks one
    /// spawns land behind those already queued), then deliver the
    /// earliest batch of arrivals receiver by receiver, until both are
    /// empty.
    fn drain(&mut self, s: &mut EvalSession) -> CoreResult<()> {
        loop {
            while let Some(task) = s.ready.pop_front() {
                self.run_task(s, task)?;
            }
            if !self.next_arrival_batch(s) {
                break;
            }
            // Deliveries never add arrivals (only `next_arrival_batch`
            // does), so the batch is delivered whole, in buffer order,
            // out of a buffer taken off the session for the while.
            let mut arrivals = std::mem::take(&mut s.arrivals);
            let delivered = arrivals.drain(..).try_for_each(|d| self.deliver(s, d));
            s.arrivals = arrivals;
            delivered?;
        }
        self.check_quiescent(s)
    }

    /// Pop every message arriving at the earliest pending instant into
    /// the arrival buffer, shuffle it with the session PRNG
    /// (deterministic tie-breaking, not biased by send order), then sort
    /// it stably by receiver index: each receiver gets its arrivals in
    /// shuffled order, receivers in ascending index order. Returns
    /// `false` when nothing is in flight. It is the *only* consumer of
    /// the session PRNG, which keeps the stream a function of the
    /// arrival sequence alone.
    fn next_arrival_batch(&mut self, s: &mut EvalSession) -> bool {
        if !self.net.has_pending() {
            return false;
        }
        let t = self
            .net
            .peek_arrival()
            .expect("pending messages have an arrival time");
        while self.net.peek_arrival() == Some(t) {
            let (from, to, wire, at) = self.net.recv_from().expect("peeked arrival must pop");
            s.arrivals.push(Delivery { from, to, at, wire });
        }
        s.rng.shuffle(&mut s.arrivals);
        s.arrivals.sort_by_key(|d| d.to.0);
        true
    }

    /// A quiescent session with a continuation still parked lost the
    /// fill that would have resumed it.
    fn check_quiescent(&self, s: &EvalSession) -> CoreResult<()> {
        let mut parked = s.slots.iter().filter_map(|slot| slot.parked.as_ref());
        match parked.next() {
            Some(&(peer, _)) => Err(EngineError::Stalled {
                peer,
                waiting: 1 + parked.count(),
            }
            .into()),
            None => Ok(()),
        }
    }

    pub(crate) fn run_task(&mut self, s: &mut EvalSession, task: Runnable) -> CoreResult<()> {
        match task {
            Runnable::Eval { at, expr, out } => self.step_eval(s, at, expr, out),
            Runnable::Resume { peer, cont, slot } => {
                // The session's input buffer, taken off it for the while.
                let mut input = std::mem::take(&mut s.inputs);
                let resumed = match s.gather(slot, &mut input) {
                    Ok(()) => self.resume(s, peer, cont, &mut input),
                    Err(e) => Err(e.into()),
                };
                input.clear();
                s.inputs = input;
                resumed
            }
        }
    }

    fn deliver(&mut self, s: &mut EvalSession, d: Delivery) -> CoreResult<()> {
        let (from, to, at_ms, Wire { msg, intent }) = (d.from, d.to, d.at, d.wire);
        let kind = msg.kind();
        let bytes = self.net.link(from, to).charged_bytes_u64(msg.wire_size());
        self.obs.emit(|| TraceEvent::MessageDelivered {
            from,
            to,
            kind,
            bytes,
            at_ms,
        });
        self.receive(s, from, to, msg, intent)
    }

    /// The receiver, the one writer of a message's effect: run at `to`
    /// the effect of `msg`, which `from` sent (local sends receive at
    /// once, cross-peer ones on delivery). The message says what to do;
    /// `intent` adds only what it does not carry yet.
    pub(super) fn receive(
        &mut self,
        s: &mut EvalSession,
        from: PeerId,
        to: PeerId,
        msg: AxmlMessage,
        intent: Intent,
    ) -> CoreResult<()> {
        match (msg, intent) {
            (_, Intent::None) => Ok(()),
            (AxmlMessage::Request { expr_xml }, Intent::Request { tag, out }) => {
                self.run_request(s, from, to, expr_xml, tag, out)
            }
            (AxmlMessage::Request { .. }, Intent::FetchTree { tree, out }) => {
                let reply = Cont::ReplyData {
                    reply_to: from,
                    tag: DataTag::Fetch,
                    remote_out: out,
                };
                self.eval_then(s, to, Expr::Tree { tree, at: to }, reply)
            }
            (
                AxmlMessage::Data { payload, .. } | AxmlMessage::Response { payload, .. },
                Intent::Reply { out },
            ) => self.fill(s, out, payload.into_forest()),
            // Definition (7): the site applies the query it was sent.
            (AxmlMessage::Data { payload, .. }, Intent::Apply { args, out }) => {
                let query = payload.into_query()?;
                self.register_pending(s, args, to, Cont::ApplyFinish { query, out })
            }
            (AxmlMessage::Data { payload, .. }, Intent::Graft { addr, notify }) => {
                self.graft_at(&addr, payload.trees())?;
                self.fill(s, notify, Vec::new())
            }
            (AxmlMessage::Data { payload, .. }, Intent::ReplicaFeed { doc }) => {
                for tree in payload.trees() {
                    s.delivered += self.feed_into(s, to, &doc, tree.clone())?;
                }
                Ok(())
            }
            // Definition (6) step 1 arriving: the provider runs the
            // service over the parameter forests for the sender.
            (
                AxmlMessage::Invoke {
                    service,
                    params,
                    forward,
                    call_id,
                },
                Intent::Reply { out },
            ) => {
                let call = ScCall {
                    caller: from,
                    service: &service,
                    param_forests: params.into_iter().map(Body::into_forest).collect(),
                    forward: &forward,
                };
                self.run_service_at(s, to, call, call_id, out)
            }
            // Definition (8): the shipped query becomes a service.
            (
                AxmlMessage::DeployQuery {
                    query_xml,
                    as_service,
                },
                Intent::Reply { out },
            ) => {
                let query = query_xml.into_query()?;
                self.peers[to.index()].register_service(Service::declarative(as_service, query));
                self.fill(s, out, Vec::new())
            }
            (AxmlMessage::InstallDoc { name, payload }, Intent::Reply { out }) => {
                self.install_new_doc(to, &name, payload.trees())?;
                self.fill(s, out, Vec::new())
            }
            (msg, _) => Err(CoreError::Malformed(format!(
                "no receiver for a {} message with this intent",
                msg.kind()
            ))),
        }
    }

    /// Fill one slot part; the fill of a slot's last part resumes the
    /// continuation parked on it (if one is — otherwise the parts stay
    /// for a later [`AxmlSystem::register_pending`] or `take`).
    pub(super) fn fill(
        &mut self,
        s: &mut EvalSession,
        out: Out,
        forest: Vec<Tree>,
    ) -> CoreResult<()> {
        let slot = &mut s.slots[out.0];
        debug_assert!(out.1 < slot.len, "no part {} in slot {}", out.1, out.0);
        let part = &mut s.parts[slot.first + out.1];
        debug_assert!(part.is_none(), "slot part filled twice");
        *part = Some(forest);
        slot.missing -= 1;
        if slot.missing == 0 {
            if let Some((peer, cont)) = slot.parked.take() {
                let slot = out.0;
                self.schedule(s, Runnable::Resume { peer, cont, slot });
            }
        }
        Ok(())
    }

    /// Evaluate `expr` at `at` into a fresh one-part slot and park `cont`
    /// on it: every step that waits on one value.
    pub(super) fn eval_then(
        &mut self,
        s: &mut EvalSession,
        at: PeerId,
        expr: Expr,
        cont: Cont,
    ) -> CoreResult<()> {
        let slot = s.new_slot(1);
        self.schedule(
            s,
            Runnable::Eval {
                at,
                expr,
                out: (slot, 0),
            },
        );
        self.register_pending(s, slot, at, cont)
    }

    /// Park `cont` on `slot` until it is ready (resuming immediately if
    /// it already is — e.g. zero-part gates or all-local fills).
    pub(super) fn register_pending(
        &mut self,
        s: &mut EvalSession,
        slot: usize,
        peer: PeerId,
        cont: Cont,
    ) -> CoreResult<()> {
        if s.slots[slot].missing == 0 {
            self.schedule(s, Runnable::Resume { peer, cont, slot });
        } else {
            debug_assert!(s.slots[slot].parked.is_none(), "slot parked twice");
            s.slots[slot].parked = Some((peer, cont));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{LocatedQuery, SendDest};
    use crate::message::tests::BODY_RENDERS;
    use axml_net::link::LinkCost;
    use axml_net::transport::Transport;
    use axml_net::NetResult;
    use axml_obs::MessageKind;
    use axml_xml::equiv::forest_equiv;
    use std::sync::{Arc, Mutex};

    fn catalog_xml() -> &'static str {
        r#"<catalog>
             <pkg name="vim"><size>4000</size></pkg>
             <pkg name="gcc"><size>90000</size></pkg>
             <pkg name="vi"><size>100</size></pkg>
           </catalog>"#
    }

    fn two_peer_system() -> (AxmlSystem, PeerId, PeerId) {
        let mut sys = AxmlSystem::new();
        let a = sys.add_peer("client");
        let b = sys.add_peer("server");
        sys.net_mut().set_link(a, b, LinkCost::wan());
        sys.install_doc(b, "catalog", Tree::parse(catalog_xml()).unwrap())
            .unwrap();
        (sys, a, b)
    }

    #[test]
    fn unfilled_slot_is_a_lost_result_not_an_empty_one() {
        use crate::error::EngineError;
        // A slot part nothing ever wrote to must surface as a typed
        // error: silently turning a lost delivery into an empty forest
        // would be the worst kind of bug to chase.
        let mut sys = AxmlSystem::new();
        sys.add_peer("a");
        let mut s = sys.new_session();
        let slot = s.new_slot(1);
        assert_eq!(s.take(slot), Err(EngineError::LostResult { slot, part: 0 }));
        // ...whereas an *empty forest* part is a perfectly valid result.
        let a = PeerId(0);
        let out = sys
            .eval(
                a,
                &Expr::Apply {
                    query: LocatedQuery::new(
                        Query::parse("none", "for $p in $0//nope return {$p}").unwrap(),
                        a,
                    ),
                    args: vec![Expr::Tree {
                        tree: Tree::parse("<x/>").unwrap(),
                        at: a,
                    }],
                },
            )
            .unwrap();
        assert!(out.is_empty(), "empty forest results stay Ok");
    }

    #[test]
    fn def1_local_tree_is_identity() {
        let mut sys = AxmlSystem::new();
        let a = sys.add_peer("a");
        let t = Tree::parse("<x><y>1</y></x>").unwrap();
        let out = sys
            .eval(
                a,
                &Expr::Tree {
                    tree: t.clone(),
                    at: a,
                },
            )
            .unwrap();
        assert!(forest_equiv(&out, &[t]));
        assert_eq!(sys.stats().total_messages(), 0, "local eval is free");
    }

    #[test]
    fn def5_remote_doc_fetch() {
        let (mut sys, a, _b) = two_peer_system();
        let rendered = BODY_RENDERS.get();
        let out = sys
            .eval(
                a,
                &Expr::Doc {
                    name: "catalog".into(),
                    at: PeerRef::At(PeerId(1)),
                },
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].serialized_size(),
            Tree::parse(catalog_xml()).unwrap().serialized_size()
        );
        // request + data back
        assert_eq!(sys.stats().total_messages(), 2);
        assert_eq!(BODY_RENDERS.get(), rendered, "charged by length alone");
        assert!(sys.stats().total_bytes() > out[0].serialized_size() as u64);
    }

    #[test]
    fn def2_local_query_on_remote_doc_def7_style() {
        let (mut sys, a, b) = two_peer_system();
        let q = Query::parse(
            "big",
            r#"for $p in $0//pkg where $p/size/text() > 1000 return {$p/@name}"#,
        )
        .unwrap();
        let e = Expr::Apply {
            query: LocatedQuery::new(q, a),
            args: vec![Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(b),
            }],
        };
        let out = sys.eval(a, &e).unwrap();
        assert_eq!(out.len(), 2);
        // naive strategy ships the whole catalog to a
        let whole = Tree::parse(catalog_xml()).unwrap().serialized_size() as u64;
        assert!(sys.stats().link(b, a).bytes >= whole);
    }

    #[test]
    fn delegation_ships_less_for_selective_queries() {
        // The rule-10/11 rewritten plan: push the selection to the data.
        // Needs a catalog large enough that data dwarfs the shipped plan —
        // the optimizer's cost model captures exactly this crossover.
        let mut sys = AxmlSystem::new();
        let a = sys.add_peer("client");
        let b = sys.add_peer("server");
        sys.net_mut().set_link(a, b, LinkCost::wan());
        let mut big = String::from("<catalog>");
        for i in 0..200 {
            big.push_str(&format!(
                r#"<pkg name="pkg{i}"><size>{}</size><desc>a package with a long description {i}</desc></pkg>"#,
                if i % 50 == 0 { 5000 } else { 10 }
            ));
        }
        big.push_str("</catalog>");
        sys.install_doc(b, "catalog", Tree::parse(&big).unwrap())
            .unwrap();
        let q = Query::parse(
            "big",
            r#"for $p in $0//pkg where $p/size/text() > 1000 return {$p/@name}"#,
        )
        .unwrap();
        let naive = Expr::Apply {
            query: LocatedQuery::new(q.clone(), a),
            args: vec![Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(b),
            }],
        };
        let out_naive = sys.eval(a, &naive).unwrap();
        let naive_bytes = sys.stats().total_bytes();
        sys.reset_stats();

        let delegated = Expr::EvalAt {
            peer: b,
            expr: Box::new(Expr::Send {
                dest: SendDest::Peer(a),
                payload: Box::new(Expr::Apply {
                    query: LocatedQuery::new(q, a),
                    args: vec![Expr::Doc {
                        name: "catalog".into(),
                        at: PeerRef::At(b),
                    }],
                }),
            }),
        };
        let rendered = BODY_RENDERS.get();
        let out_del = sys.eval(a, &delegated).unwrap();
        assert_eq!(
            BODY_RENDERS.get(),
            rendered,
            "shipped text charged by length"
        );
        let del_bytes = sys.stats().total_bytes();
        assert!(forest_equiv(&out_naive, &out_del));
        assert!(
            del_bytes < naive_bytes,
            "delegation must ship less: {del_bytes} vs {naive_bytes}"
        );
    }

    #[test]
    fn def3_send_to_peer_returns_empty() {
        let (mut sys, a, b) = two_peer_system();
        let e = Expr::Send {
            dest: SendDest::Peer(a),
            payload: Box::new(Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(b),
            }),
        };
        // evaluated at b: catalog local, shipped to a, value ∅ at b
        let out = sys.eval(b, &e).unwrap();
        assert!(out.is_empty());
        assert_eq!(sys.stats().link(b, a).messages, 1);
    }

    #[test]
    fn def4_send_to_nodes_appends() {
        let (mut sys, a, b) = two_peer_system();
        sys.install_doc(a, "inbox", Tree::parse("<inbox><new/></inbox>").unwrap())
            .unwrap();
        let inbox_tree = sys.peer(a).docs.get(&"inbox".into()).unwrap().tree();
        let target = inbox_tree
            .first_child_labeled(inbox_tree.root(), "new")
            .unwrap();
        let e = Expr::Send {
            dest: SendDest::Nodes(vec![NodeAddr::new(a, "inbox", target)]),
            payload: Box::new(Expr::Tree {
                tree: Tree::parse("<alert>hi</alert>").unwrap(),
                at: b,
            }),
        };
        let out = sys.eval(b, &e).unwrap();
        assert!(out.is_empty());
        let inbox = sys.peer(a).docs.get(&"inbox".into()).unwrap().tree();
        assert_eq!(
            inbox.serialize(),
            "<inbox><new><alert>hi</alert></new></inbox>"
        );
    }

    #[test]
    fn send_new_doc_installs_and_respects_uniqueness() {
        let (mut sys, a, b) = two_peer_system();
        let e = Expr::Send {
            dest: SendDest::NewDoc {
                peer: a,
                name: "copy".into(),
            },
            payload: Box::new(Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(b),
            }),
        };
        sys.eval(b, &e).unwrap();
        assert!(sys.peer(a).docs.contains(&"copy".into()));
        // the same name again violates §2.1 uniqueness
        assert!(sys.eval(b, &e).is_err());
    }

    #[test]
    fn def6_service_call_roundtrip() {
        let (mut sys, a, b) = two_peer_system();
        sys.register_declarative_service(
            b,
            "lookup",
            r#"for $p in doc("catalog")//pkg where $p/@name = $0/text() return {$p/size}"#,
        )
        .unwrap();
        let e = Expr::Sc {
            provider: PeerRef::At(b),
            service: "lookup".into(),
            params: vec![Expr::Tree {
                tree: Tree::parse("<q>gcc</q>").unwrap(),
                at: a,
            }],
            forward: vec![],
        };
        let rendered = BODY_RENDERS.get();
        let out = sys.eval(a, &e).unwrap();
        assert_eq!(BODY_RENDERS.get(), rendered, "charged by length alone");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].serialize(), "<size>90000</size>");
        // invoke + response
        assert_eq!(sys.stats().total_messages(), 2);
    }

    #[test]
    fn def6_forward_list_redirects_results() {
        let (mut sys, a, b) = two_peer_system();
        let c = sys.add_peer("archive");
        sys.install_doc(c, "log", Tree::parse("<log/>").unwrap())
            .unwrap();
        sys.register_declarative_service(b, "scan", r#"doc("catalog")//pkg/@name"#)
            .unwrap();
        let log_root = sys.peer(c).docs.get(&"log".into()).unwrap().tree().root();
        let e = Expr::Sc {
            provider: PeerRef::At(b),
            service: "scan".into(),
            params: vec![],
            forward: vec![NodeAddr::new(c, "log", log_root)],
        };
        let rendered = BODY_RENDERS.get();
        let out = sys.eval(a, &e).unwrap();
        assert_eq!(BODY_RENDERS.get(), rendered, "charged by length alone");
        assert!(out.is_empty(), "results went to the forward list");
        let log = sys.peer(c).docs.get(&"log".into()).unwrap().tree();
        assert_eq!(log.children(log.root()).len(), 3);
        // nothing shipped back to the caller
        assert_eq!(sys.stats().link(b, a).messages, 0);
        assert_eq!(sys.stats().link(b, c).messages, 1);
    }

    #[test]
    fn def8_deploy_creates_service() {
        let (mut sys, a, b) = two_peer_system();
        let q = Query::parse("sel", r#"for $p in doc("catalog")//pkg return {$p/@name}"#).unwrap();
        sys.eval(
            a,
            &Expr::Deploy {
                to: b,
                query: LocatedQuery::new(q, a),
                as_service: "names".into(),
            },
        )
        .unwrap();
        assert!(sys.peer(b).services().contains_key(&"names".into()));
        // and the deployed service is callable
        let out = sys
            .eval(
                a,
                &Expr::Sc {
                    provider: PeerRef::At(b),
                    service: "names".into(),
                    params: vec![],
                    forward: vec![],
                },
            )
            .unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn def9_generic_doc_resolution() {
        let mut sys = AxmlSystem::new();
        let a = sys.add_peer("a");
        let b = sys.add_peer("b");
        let c = sys.add_peer("c");
        sys.net_mut().set_link(a, b, LinkCost::slow());
        sys.net_mut().set_link(a, c, LinkCost::lan());
        sys.install_replica(b, "cat", "cat-b", Tree::parse("<c><p>1</p></c>").unwrap())
            .unwrap();
        sys.install_replica(c, "cat", "cat-c", Tree::parse("<c><p>1</p></c>").unwrap())
            .unwrap();
        sys.set_pick_policy(crate::pick::PickPolicy::Closest);
        let out = sys
            .eval(
                a,
                &Expr::Doc {
                    name: "cat".into(),
                    at: PeerRef::Any,
                },
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        // fetched from c (the cheap link), not b
        assert!(sys.stats().link(c, a).messages > 0);
        assert_eq!(sys.stats().link(b, a).messages, 0);
    }

    #[test]
    fn sc_inside_tree_materializes() {
        let (mut sys, a, b) = two_peer_system();
        sys.register_declarative_service(b, "names", r#"doc("catalog")//pkg/@name"#)
            .unwrap();
        let doc = Tree::parse(
            r#"<report><title>pkgs</title>
               <sc><peer>p1</peer><service>names</service></sc></report>"#,
        )
        .unwrap();
        let out = sys.eval(a, &Expr::Tree { tree: doc, at: a }).unwrap();
        assert_eq!(out.len(), 1);
        let t = &out[0];
        // 3 results + title + sc element still present
        assert_eq!(t.children(t.root()).len(), 5);
        let texts: Vec<String> = t
            .children_labeled(t.root(), "text")
            .map(|n| t.text(n))
            .collect();
        assert_eq!(texts, ["vim", "gcc", "vi"]);
    }

    #[test]
    fn lazy_sc_not_activated() {
        let (mut sys, a, b) = two_peer_system();
        sys.register_declarative_service(b, "names", r#"doc("catalog")//pkg/@name"#)
            .unwrap();
        let doc = Tree::parse(
            r#"<report><sc mode="lazy"><peer>p1</peer><service>names</service></sc></report>"#,
        )
        .unwrap();
        let out = sys.eval(a, &Expr::Tree { tree: doc, at: a }).unwrap();
        assert_eq!(out[0].children(out[0].root()).len(), 1, "sc untouched");
        assert_eq!(sys.stats().total_messages(), 0);
    }

    #[test]
    fn seq_returns_last_value() {
        let (mut sys, a, b) = two_peer_system();
        let e = Expr::Seq(vec![
            Expr::Send {
                dest: SendDest::NewDoc {
                    peer: a,
                    name: "tmp".into(),
                },
                payload: Box::new(Expr::Doc {
                    name: "catalog".into(),
                    at: PeerRef::At(b),
                }),
            },
            Expr::Doc {
                name: "tmp".into(),
                at: PeerRef::At(a),
            },
        ]);
        let out = sys.eval(a, &e).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].serialize().starts_with("<tmp>"));
    }

    #[test]
    fn errors_propagate() {
        let (mut sys, a, b) = two_peer_system();
        assert!(matches!(
            sys.eval(
                a,
                &Expr::Doc {
                    name: "missing".into(),
                    at: PeerRef::At(b)
                }
            ),
            Err(CoreError::NoSuchDoc { .. })
        ));
        assert!(matches!(
            sys.eval(
                a,
                &Expr::Sc {
                    provider: PeerRef::At(b),
                    service: "nope".into(),
                    params: vec![],
                    forward: vec![],
                }
            ),
            Err(CoreError::NoSuchService { .. })
        ));
        assert!(sys.eval(PeerId(9), &Expr::Seq(vec![])).is_err());
    }

    #[test]
    fn rule14_shape_eval_relocation_is_value_preserving() {
        let (mut sys, a, b) = two_peer_system();
        let direct = Expr::Doc {
            name: "catalog".into(),
            at: PeerRef::At(b),
        };
        let out1 = sys.eval(a, &direct).unwrap();
        let relocated = Expr::EvalAt {
            peer: b,
            expr: Box::new(Expr::Send {
                dest: SendDest::Peer(a),
                payload: Box::new(direct),
            }),
        };
        let out2 = sys.eval(a, &relocated).unwrap();
        assert!(forest_equiv(&out1, &out2));
    }

    /// A wire that checks every message it is handed: the frame decodes
    /// back to the message, so each fact its receiver reads crosses the
    /// wire. It notes the kinds it saw, and whether an `Invoke` carried a
    /// forward list.
    struct DecodeCheck(Arc<Mutex<Vec<(MessageKind, bool)>>>);

    impl Transport<Wire> for DecodeCheck {
        fn label(&self) -> &'static str {
            "decode-check"
        }

        fn connect(&mut self, _: PeerId, _: &str) {}

        fn ship(&mut self, _: PeerId, _: PeerId, w: &Wire) -> NetResult<()> {
            let decoded = AxmlMessage::decode(&w.msg.frame_bytes()).unwrap();
            assert_eq!(decoded, w.msg, "a frame decodes to its message");
            let forwards =
                matches!(&w.msg, AxmlMessage::Invoke { forward, .. } if !forward.is_empty());
            self.0.lock().unwrap().push((w.msg.kind(), forwards));
            Ok(())
        }
    }

    #[test]
    fn every_shipped_message_decodes_to_itself() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut sys = AxmlSystem::builder()
            .transport(Box::new(DecodeCheck(seen.clone())))
            .peers(["client", "server", "archive"])
            .link("client", "server", LinkCost::wan())
            .link("client", "archive", LinkCost::wan())
            .link("server", "archive", LinkCost::wan())
            .doc("server", "catalog", catalog_xml())
            .doc("archive", "log", "<log/>")
            .service("server", "names", r#"doc("catalog")//pkg/@name"#)
            .service(
                "server",
                "lookup",
                r#"for $p in doc("catalog")//pkg where $p/@name = $0/text() return {$p/size}"#,
            )
            .replica("client", "cat", "cat-a", "<catalog/>")
            .replica("server", "cat", "cat-b", "<catalog/>")
            .build()
            .unwrap();
        let (a, b, c) = (PeerId(0), PeerId(1), PeerId(2));
        let q = |src| Query::parse("q", src).unwrap();
        let catalog = Expr::Doc {
            name: "catalog".into(),
            at: PeerRef::At(b),
        };
        let log_root = sys.peer(c).docs.get(&"log".into()).unwrap().tree().root();
        let plans = [
            // A fetch by name (Request, Data fetch) and of a tree literal.
            catalog.clone(),
            Expr::Tree {
                tree: Tree::parse("<t>1</t>").unwrap(),
                at: b,
            },
            // A delegation whose value comes straight back.
            Expr::EvalAt {
                peer: b,
                expr: Box::new(Expr::Send {
                    dest: SendDest::Peer(a),
                    payload: Box::new(catalog.clone()),
                }),
            },
            // A send to a third peer, evaluated by delegation.
            Expr::EvalAt {
                peer: b,
                expr: Box::new(Expr::Send {
                    dest: SendDest::Peer(c),
                    payload: Box::new(catalog),
                }),
            },
            // A remote definition (Data query-def).
            Expr::Apply {
                query: LocatedQuery::new(q("$0//pkg/@name"), b),
                args: vec![Expr::Tree {
                    tree: Tree::parse("<x><pkg name=\"n\"/></x>").unwrap(),
                    at: a,
                }],
            },
            // A call answered by a Response, one with a forward list.
            Expr::Sc {
                provider: PeerRef::At(b),
                service: "names".into(),
                params: vec![],
                forward: vec![],
            },
            Expr::Sc {
                provider: PeerRef::At(b),
                service: "lookup".into(),
                params: vec![Expr::Tree {
                    tree: Tree::parse("<q>gcc</q>").unwrap(),
                    at: a,
                }],
                forward: vec![NodeAddr::new(c, "log", log_root)],
            },
            Expr::Deploy {
                to: b,
                query: LocatedQuery::new(q(r#"doc("catalog")//pkg"#), a),
                as_service: "pkgs".into(),
            },
            Expr::Send {
                dest: SendDest::NewDoc {
                    peer: b,
                    name: "copy".into(),
                },
                payload: Box::new(Expr::Tree {
                    tree: Tree::parse("<copy/>").unwrap(),
                    at: a,
                }),
            },
        ];
        for plan in &plans {
            sys.eval(a, plan).unwrap();
        }
        sys.feed_replicas(a, &"cat".into(), Tree::parse("<pkg/>").unwrap())
            .unwrap();
        let seen = seen.lock().unwrap();
        for kind in MessageKind::ALL {
            assert!(seen.iter().any(|&(k, _)| k == kind), "no {kind} shipped");
        }
        assert!(
            seen.iter().any(|&(_, forwards)| forwards),
            "an Invoke forwards"
        );
    }

    /// Send `msg` from the client to the server with the intent `intent`
    /// builds for a fresh slot of the session (which it may add slots
    /// to), and run the session to its end.
    fn receive_over_wire(
        msg: AxmlMessage,
        intent: impl FnOnce(&mut EvalSession, Out) -> Intent,
    ) -> CoreResult<()> {
        let (mut sys, a, b) = two_peer_system();
        let mut s = sys.new_session();
        let out = (s.new_slot(1), 0);
        let intent = intent(&mut s, out);
        sys.send_wire(&mut s, a, b, msg, intent)?;
        sys.run_session(&mut s)
    }

    /// A request decodes with a text body; its receiver answers a typed
    /// error instead of evaluating it.
    #[test]
    fn a_request_with_a_text_body_is_malformed() {
        let msg = AxmlMessage::Request {
            expr_xml: r#"<doc name="catalog" at="p1"/>"#.into(),
        };
        let tag = DataTag::Fetch;
        let r = receive_over_wire(msg, |_, out| Intent::Request { tag, out });
        assert!(matches!(r, Err(CoreError::Malformed(_))), "{r:?}");
    }

    /// Likewise a deployed query whose body is text.
    #[test]
    fn a_deployed_text_body_is_malformed() {
        let msg = AxmlMessage::DeployQuery {
            query_xml: "<query/>".into(),
            as_service: "q1".into(),
        };
        let r = receive_over_wire(msg, |_, out| Intent::Reply { out });
        assert!(matches!(r, Err(CoreError::Malformed(_))), "{r:?}");
    }

    /// Likewise a remote definition whose body is text: the evaluation
    /// site has no query to apply, and no copy of the sender's to fall
    /// back on.
    #[test]
    fn a_remote_definition_with_a_text_body_is_malformed() {
        let msg = AxmlMessage::Data {
            payload: "<query/>".into(),
            tag: DataTag::QueryDef,
        };
        let r = receive_over_wire(msg, |s, out| Intent::Apply {
            args: s.new_slot(0),
            out,
        });
        assert!(matches!(r, Err(CoreError::Malformed(_))), "{r:?}");
    }

    /// Definition (7) applies the query the evaluation site was sent: a
    /// `Data(QueryDef)` whose body holds another query than the `Apply`
    /// that the same arguments go to answers with the shipped one.
    #[test]
    fn a_remote_definition_applies_the_query_in_its_body() {
        let (mut sys, a, b) = two_peer_system();
        let q = |name, src| Query::parse(name, src).unwrap();
        let applied = q("names", "$0//pkg/@name");
        let shipped = q("sizes", "$0//pkg/size");
        let catalog = Tree::parse(catalog_xml()).unwrap();
        let arg = || Expr::Tree {
            tree: catalog.clone(),
            at: a,
        };
        let names = sys
            .eval(
                a,
                &Expr::Apply {
                    query: LocatedQuery::new(applied, b),
                    args: vec![arg()],
                },
            )
            .unwrap();
        let sizes = shipped
            .eval_with_docs(&[vec![catalog.clone()]], sys.peer(a))
            .unwrap();

        // The same remote application, with `shipped` in the body.
        let mut s = sys.new_session();
        let root = s.new_slot(1);
        let args = s.new_slot(1);
        let msg = AxmlMessage::Data {
            payload: Body::query(shipped),
            tag: DataTag::QueryDef,
        };
        let intent = Intent::Apply {
            args,
            out: (root, 0),
        };
        sys.send_wire(&mut s, b, a, msg, intent).unwrap();
        sys.schedule(
            &mut s,
            Runnable::Eval {
                at: a,
                expr: arg(),
                out: (args, 0),
            },
        );
        sys.run_session(&mut s).unwrap();
        let out = s.take(root).unwrap();
        assert!(!forest_equiv(&names, &sizes), "the two queries differ here");
        assert!(forest_equiv(&out, &sizes), "{out:?}");
    }
}
