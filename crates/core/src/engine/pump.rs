//! The core pump: what travels ([`Wire`], `Intent`), what waits
//! (`Runnable`, `Cont`, result slots) and the loop that drives an
//! `EvalSession` to quiescence — drain ready tasks, then deliver the
//! earliest batch of in-flight messages to the peers' mailboxes, repeat.
//!
//! The pump knows nothing about retry or `@any` failover: sends go
//! through [`super::send`], generic references through [`super::any`].

use super::defs::ScCall;
use crate::error::{CoreResult, EngineError};
use crate::expr::{Expr, PeerRef};
use crate::message::AxmlMessage;
use crate::service::Service;
use crate::system::AxmlSystem;
use axml_net::{FramedPayload, Payload};
use axml_obs::{DataTag, MessageKind, TraceEvent};
use axml_prng::SplitMix64;
use axml_query::Query;
use axml_xml::ids::{DocName, NodeAddr, PeerId, ServiceName};
use axml_xml::tree::{NodeId, Tree};
use std::collections::{BTreeMap, VecDeque};

/// A result destination: `(slot, part)` inside the session's slot table.
pub(crate) type Out = (usize, usize);

/// What travels on a link: the charged message plus the receiver-side
/// continuation. Only `msg` contributes to the wire size, and only `msg`
/// holds the trees in transit — intents are bookkeeping for the
/// simulation, not payload.
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
    /// Only the [`AxmlMessage`] crosses the wire: the `Intent` is the
    /// sender-side continuation bookkeeping (which slot a reply fills),
    /// not message content — a real remote peer would reconstruct it
    /// from correlation ids.
    fn frame_payload(&self, out: &mut Vec<u8>) {
        self.msg.write_frame(out)
    }
}

impl std::fmt::Debug for Wire {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Wire({})", self.msg.kind())
    }
}

/// The effect a message has when it reaches its receiver's mailbox. The
/// forests it works on are the ones the message carried
/// ([`AxmlMessage::into_forests`]).
pub(crate) enum Intent {
    /// Pure data transfer; the send's value was already determined.
    None,
    /// Fill a waiting slot with the message's forest (responses, fetched
    /// data; ∅ for shipped text, whose arrival is all that is awaited).
    Reply { out: Out },
    /// Definition (5) / delegated-send shape: the receiver evaluates
    /// `expr` and ships the result back as `Data(tag)` into `out`.
    EvalAndReply {
        expr: Expr,
        reply_to: PeerId,
        tag: DataTag,
        out: Out,
    },
    /// General `eval@p`: the receiver evaluates `expr`; the delegating
    /// side's value is ∅, filled into `done` once the inner completes.
    EvalHere { expr: Expr, done: Out },
    /// A request whose message carries the expression to evaluate
    /// (a delegation, a fetch by name): opened into `EvalAndReply` or
    /// `EvalHere` at the receiver ([`Intent::open`]), never applied.
    Shipped {
        reply_to: PeerId,
        tag: DataTag,
        out: Out,
    },
    /// Definition (4) / forward lists: graft the forest under `addr`.
    Graft { addr: NodeAddr, notify: Out },
    /// `send(d@p, t)`: install the forest as a new document at the
    /// receiver.
    InstallDoc { name: DocName, notify: Out },
    /// Definition (8): register the shipped query as a service.
    Deploy {
        query: Query,
        as_service: ServiceName,
        notify: Out,
    },
    /// Definition (6) step 1 arriving: the provider runs the service over
    /// the parameter forests.
    Invoke {
        caller: PeerId,
        service: ServiceName,
        forward: Vec<NodeAddr>,
        call_id: u64,
        out: Out,
    },
    /// Replica maintenance: graft the update into the receiving replica
    /// and pump its subscriptions.
    ReplicaFeed { doc: DocName },
}

/// One fixed-arity result slot: ready when every part is filled.
struct Slot {
    parts: Vec<Option<Vec<Tree>>>,
    missing: usize,
    /// The continuation (and the peer it runs at) parked on this slot;
    /// the fill of the last part resumes it.
    parked: Option<(PeerId, Cont)>,
}

/// A task on the ready queue.
pub(crate) enum Runnable {
    /// Decompose `expr` at a peer; its value lands in `out`.
    Eval { at: PeerId, expr: Expr, out: Out },
    /// Resume a continuation whose inputs are all available.
    Resume {
        peer: PeerId,
        cont: Cont,
        input: Vec<Vec<Tree>>,
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
    /// Definitions (2)/(7): run the query over the gathered argument
    /// forests (`skip` leading parts are the remote-definition gate).
    ApplyFinish { query: Query, skip: usize, out: Out },
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
    /// `send(d@p, t)`: payload evaluated — install the new document.
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

/// A message popped off the network and opened, parked in its receiver's
/// mailbox: what is left of it is what the trace reports (`kind`, `size`)
/// and what the receiver acts on (`intent`, `forests`).
pub(crate) struct Delivery {
    from: PeerId,
    to: PeerId,
    at: f64,
    kind: MessageKind,
    size: usize,
    intent: Intent,
    forests: Vec<Vec<Tree>>,
}

/// One evaluation session: everything the engine needs besides Σ.
///
/// Sessions are pure data — all logic lives in `AxmlSystem` methods so
/// the loop can borrow peers, network and observability freely.
pub(crate) struct EvalSession {
    slots: Vec<Slot>,
    ready: VecDeque<Runnable>,
    /// Per-peer arrival mailboxes, keyed by peer index. Sparse — only
    /// peers that actually receive something get an entry, so a session
    /// over 10⁵ peers costs O(touched peers), and the ascending key
    /// iteration reproduces the dense `0..n` drain order bit-exactly.
    mailboxes: BTreeMap<u32, VecDeque<Delivery>>,
    rng: SplitMix64,
    /// Result trees delivered by arrival-side subscription pumps
    /// (replica maintenance accumulates its downstream count here).
    pub(crate) delivered: usize,
}

impl EvalSession {
    /// Allocate a slot with `parts` ordered parts (0 parts = ready now).
    pub(crate) fn new_slot(&mut self, parts: usize) -> usize {
        self.slots.push(Slot {
            parts: vec![None; parts],
            missing: parts,
            parked: None,
        });
        self.slots.len() - 1
    }

    /// Take the first part of a finished slot (the session's result).
    ///
    /// A part that was never filled means a delivery was lost somewhere
    /// between the peers — that is a [`EngineError::LostResult`], not an
    /// empty answer. (A part filled with an empty forest is a perfectly
    /// valid result and comes back as `Ok(vec![])`.)
    pub(crate) fn take(&mut self, slot: usize) -> Result<Vec<Tree>, EngineError> {
        self.slots[slot]
            .parts
            .get_mut(0)
            .and_then(Option::take)
            .ok_or(EngineError::LostResult { slot, part: 0 })
    }

    fn gather(&mut self, slot: usize) -> Result<Vec<Vec<Tree>>, EngineError> {
        self.slots[slot]
            .parts
            .iter_mut()
            .enumerate()
            .map(|(part, p)| p.take().ok_or(EngineError::LostResult { slot, part }))
            .collect()
    }
}

impl AxmlSystem {
    /// `eval@at(expr)` — evaluate the expression at a peer, returning the
    /// forest left there. Blocks until the session is quiescent (every
    /// task run, every in-flight message delivered).
    pub fn eval(&mut self, at: PeerId, expr: &Expr) -> CoreResult<Vec<Tree>> {
        self.check_peer(at)?;
        let (root, mut s) = self.blocking(|sys, s| {
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
        })?;
        Ok(s.take(root)?)
    }

    /// The shape of every blocking entry point: open a session, let
    /// `seed` put work into it, drive it to quiescence, and hand back
    /// `seed`'s value with the finished session. If `seed` itself fails
    /// the messages it already sent are dropped from the network.
    pub(crate) fn blocking<T>(
        &mut self,
        seed: impl FnOnce(&mut Self, &mut EvalSession) -> CoreResult<T>,
    ) -> CoreResult<(T, EvalSession)> {
        let mut s = self.new_session();
        match seed(self, &mut s) {
            Ok(v) => {
                self.run_session(&mut s)?;
                Ok((v, s))
            }
            Err(e) => {
                self.net.clear_in_flight();
                Err(e)
            }
        }
    }

    /// A fresh session with a deterministic, per-session PRNG seed.
    fn new_session(&mut self) -> EvalSession {
        let n = self.sessions;
        self.sessions += 1;
        EvalSession {
            slots: Vec::new(),
            ready: VecDeque::new(),
            mailboxes: BTreeMap::new(),
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
    /// earliest batch of arrivals mailbox by mailbox, until both are
    /// empty.
    fn drain(&mut self, s: &mut EvalSession) -> CoreResult<()> {
        loop {
            while let Some(task) = s.ready.pop_front() {
                self.run_task(s, task)?;
            }
            if !self.next_arrival_batch(s) {
                break;
            }
            // Deliveries never push into mailboxes (only
            // `next_arrival_batch` does), so taking the whole map and
            // draining in ascending peer order is exactly the old dense
            // `0..n` per-peer scan.
            for (_, mut mb) in std::mem::take(&mut s.mailboxes) {
                while let Some(d) = mb.pop_front() {
                    self.deliver(s, d)?;
                }
            }
        }
        self.check_quiescent(s)
    }

    /// Pop every message arriving at the earliest pending instant,
    /// shuffle the batch with the session PRNG (deterministic
    /// tie-breaking, not biased by send order) and enqueue each message
    /// into its receiver's mailbox. Returns `false` when nothing is in
    /// flight. It is the *only* consumer of the session PRNG, which keeps
    /// the stream a function of the arrival sequence alone.
    fn next_arrival_batch(&mut self, s: &mut EvalSession) -> bool {
        if !self.net.has_pending() {
            return false;
        }
        let t = self
            .net
            .peek_arrival()
            .expect("pending messages have an arrival time");
        let mut batch = Vec::new();
        while self.net.peek_arrival() == Some(t) {
            let (from, to, wire, at) = self.net.recv_from().expect("peeked arrival must pop");
            let (kind, size) = (wire.msg.kind(), wire.msg.wire_size());
            let (intent, forests) = wire.intent.open(wire.msg, to);
            batch.push(Delivery {
                from,
                to,
                at,
                kind,
                size,
                intent,
                forests,
            });
        }
        s.rng.shuffle(&mut batch);
        for d in batch {
            s.mailboxes.entry(d.to.0).or_default().push_back(d);
        }
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
            Runnable::Resume { peer, cont, input } => self.resume(s, peer, cont, input),
        }
    }

    fn deliver(&mut self, s: &mut EvalSession, d: Delivery) -> CoreResult<()> {
        let (from, to, kind, at_ms) = (d.from, d.to, d.kind, d.at);
        let bytes = self.net.link(from, to).charged_bytes_u64(d.size);
        self.obs.emit(|| TraceEvent::MessageDelivered {
            from,
            to,
            kind,
            bytes,
            at_ms,
        });
        self.apply_intent(s, to, d.intent, d.forests)
    }

    /// Run a message's receiver-side effect at `to` over the `forests`
    /// it carried (local sends apply it at once, cross-peer ones on
    /// delivery).
    pub(super) fn apply_intent(
        &mut self,
        s: &mut EvalSession,
        to: PeerId,
        intent: Intent,
        forests: Vec<Vec<Tree>>,
    ) -> CoreResult<()> {
        // Every variant but `Invoke` works on the message's one forest.
        let forest = |forests: Vec<Vec<Tree>>| forests.into_iter().next().unwrap_or_default();
        match intent {
            Intent::None => Ok(()),
            Intent::Shipped { .. } => unreachable!("a shipped intent is opened on arrival"),
            Intent::Reply { out } => self.fill(s, out, forest(forests)),
            Intent::EvalAndReply {
                expr,
                reply_to,
                tag,
                out,
            } => {
                let slot = s.new_slot(1);
                self.schedule(
                    s,
                    Runnable::Eval {
                        at: to,
                        expr,
                        out: (slot, 0),
                    },
                );
                self.register_pending(
                    s,
                    slot,
                    to,
                    Cont::ReplyData {
                        reply_to,
                        tag,
                        remote_out: out,
                    },
                )
            }
            Intent::EvalHere { expr, done } => {
                let slot = s.new_slot(1);
                self.schedule(
                    s,
                    Runnable::Eval {
                        at: to,
                        expr,
                        out: (slot, 0),
                    },
                );
                self.register_pending(s, slot, to, Cont::Discard { out: done })
            }
            Intent::Graft { addr, notify } => {
                self.graft_at(&addr, &forest(forests))?;
                self.fill(s, notify, Vec::new())
            }
            Intent::InstallDoc { name, notify } => {
                self.install_new_doc(to, &name, &forest(forests))?;
                self.fill(s, notify, Vec::new())
            }
            Intent::Deploy {
                query,
                as_service,
                notify,
            } => {
                self.peers[to.index()].register_service(Service::declarative(as_service, query));
                self.fill(s, notify, Vec::new())
            }
            Intent::Invoke {
                caller,
                service,
                forward,
                call_id,
                out,
            } => {
                let call = ScCall {
                    caller,
                    service: &service,
                    param_forests: forests,
                    forward: &forward,
                };
                self.run_service_at(s, to, call, call_id, out)
            }
            Intent::ReplicaFeed { doc } => {
                for tree in forest(forests) {
                    s.delivered += self.feed_into(s, to, &doc, tree)?;
                }
                Ok(())
            }
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
        debug_assert!(slot.parts[out.1].is_none(), "slot part filled twice");
        slot.parts[out.1] = Some(forest);
        slot.missing -= 1;
        if slot.missing == 0 {
            if let Some((peer, cont)) = slot.parked.take() {
                let input = s.gather(out.0)?;
                self.schedule(s, Runnable::Resume { peer, cont, input });
            }
        }
        Ok(())
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
            let input = s.gather(slot)?;
            self.schedule(s, Runnable::Resume { peer, cont, input });
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
    use crate::error::CoreError;
    use crate::expr::{LocatedQuery, SendDest};
    use crate::message::tests::BODY_RENDERS;
    use axml_net::link::LinkCost;
    use axml_query::Query;
    use axml_xml::equiv::forest_equiv;
    use axml_xml::ids::NodeAddr;

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
}
