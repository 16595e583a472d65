//! The definitions: the task form of the paper's definitions (1)–(8) —
//! `step_eval` decomposes one expression node, `resume` finishes a
//! parked continuation, and the service-call steps of §2.2 run between
//! them. Generic references (definition (9)) are handed to
//! [`super::any`]; every message leaves through [`super::send`].
//! A step sends its message even to its own peer, and only the receiver
//! runs the effect (`run_request`, `run_service_at`, `graft_at`,
//! `install_new_doc`). Local forms stay for (1)/(5), (2)/(7) and
//! delegation, which the paper defines apart.

use super::pump::{Cont, EvalSession, Intent, Out, Runnable};
use crate::error::{CoreError, CoreResult};
use crate::expr::{Expr, LocatedQuery, PeerRef, SendDest};
use crate::message::{AxmlMessage, Body};
use crate::peer::PeerState;
use crate::sc::{ActivationMode, ScNode};
use crate::system::AxmlSystem;
use axml_obs::{DataTag, TraceEvent};
use axml_xml::ids::{DocName, NodeAddr, PeerId, ServiceName};
use axml_xml::store::Document;
use axml_xml::symbol::Label;
use axml_xml::tree::Tree;
use std::collections::VecDeque;
use std::mem::take;

/// One service activation: who calls what, with which parameter
/// forests and forward list. The provider travels beside it — generic
/// until definition (9) resolved it, a concrete peer afterwards.
pub(super) struct ScCall<'a> {
    pub(super) caller: PeerId,
    pub(super) service: &'a ServiceName,
    pub(super) param_forests: Vec<Vec<Tree>>,
    pub(super) forward: &'a [NodeAddr],
}

impl AxmlSystem {
    /// Decompose one expression node — the task form of definitions
    /// (1)–(9). Each case either fills `out` directly, spawns child
    /// tasks plus a continuation, or ships a message whose intent will.
    pub(super) fn step_eval(
        &mut self,
        s: &mut EvalSession,
        at: PeerId,
        expr: Expr,
        out: Out,
    ) -> CoreResult<()> {
        match expr {
            // ---- definitions (1)/(5): literal trees -------------------
            Expr::Tree { tree, at: loc } => {
                if loc == at {
                    self.record_def(1, at, "tree");
                    self.materialize_tree_tasks(s, at, &tree, out)
                } else {
                    self.fetch_remote(s, at, loc, Expr::Tree { tree, at: loc }, out)
                }
            }

            // ---- documents (+ definition (9) for d@any) ---------------
            Expr::Doc { name, at: loc } => match loc {
                PeerRef::At(home) => self.fetch_doc(s, at, home, name, out),
                PeerRef::Any => self.resolve_any(s, at, &name, |sys, s, home, concrete| {
                    sys.fetch_doc(s, at, home, concrete, out)
                }),
            },

            // ---- definitions (2)/(7): query application ---------------
            Expr::Apply { query, args } => {
                let LocatedQuery { query, def_at } = query;
                if query.arity() != args.len() {
                    return Err(CoreError::Query(axml_query::QueryError::ArityMismatch {
                        expected: query.arity(),
                        got: args.len(),
                    }));
                }
                let slot = s.new_slot(args.len());
                if def_at != at {
                    // Definition (7): the definition is shipped to the
                    // evaluation site, whose receiver applies it.
                    self.record_def(7, at, "apply");
                    self.send_wire(
                        s,
                        def_at,
                        at,
                        AxmlMessage::Data {
                            payload: Body::query(query),
                            tag: DataTag::QueryDef,
                        },
                        Intent::Apply { args: slot, out },
                    )?;
                } else {
                    self.record_def(2, at, "apply");
                    self.register_pending(s, slot, at, Cont::ApplyFinish { query, out })?;
                }
                // Arguments evaluate concurrently — remote fetches for
                // different arguments overlap on independent links.
                for (i, a) in args.into_iter().enumerate() {
                    self.schedule(
                        s,
                        Runnable::Eval {
                            at,
                            expr: a,
                            out: (slot, i),
                        },
                    );
                }
                Ok(())
            }

            // ---- definitions (3)/(4) + send-to-new-doc ----------------
            Expr::Send { dest, payload } => {
                let cont = match dest {
                    SendDest::Peer(q) => Cont::SendPeer { dest: q, out },
                    SendDest::Nodes(addrs) => Cont::SendNodes { addrs, out },
                    SendDest::NewDoc { peer, name } => Cont::SendNewDoc { peer, name, out },
                };
                self.eval_then(s, at, *payload, cont)
            }

            // ---- definition (6): service calls ------------------------
            Expr::Sc {
                provider,
                service,
                params,
                forward,
            } => {
                let slot = s.new_slot(params.len());
                for (i, p) in params.into_iter().enumerate() {
                    self.schedule(
                        s,
                        Runnable::Eval {
                            at,
                            expr: p,
                            out: (slot, i),
                        },
                    );
                }
                self.register_pending(
                    s,
                    slot,
                    at,
                    Cont::ScReady {
                        provider,
                        service,
                        forward,
                        out,
                    },
                )?;
                Ok(())
            }

            // ---- rules (14)–(16): delegated evaluation ----------------
            Expr::EvalAt { peer, expr: inner } => {
                let now = self.now_ms();
                self.obs.record(TraceEvent::Delegation {
                    from: at,
                    to: peer,
                    at_ms: now,
                });
                if peer != at {
                    // The delegated plan crosses the wire (embedded
                    // query definitions travel with it); the receiver
                    // takes it out of the request.
                    self.send_wire(
                        s,
                        at,
                        peer,
                        AxmlMessage::Request {
                            expr_xml: Body::expr(*inner),
                        },
                        Intent::Request {
                            tag: DataTag::DelegatedResult,
                            out,
                        },
                    )
                } else {
                    match *inner {
                        Expr::Send {
                            dest: SendDest::Peer(back),
                            payload,
                        } if back == at => {
                            self.schedule(
                                s,
                                Runnable::Eval {
                                    at: peer,
                                    expr: *payload,
                                    out,
                                },
                            );
                        }
                        other => self.eval_then(s, peer, other, Cont::Discard { out })?,
                    }
                    Ok(())
                }
            }

            // ---- definition (8): code shipping ------------------------
            Expr::Deploy {
                to,
                query,
                as_service,
            } => {
                self.record_def(8, at, "deploy");
                let gate = s.new_slot(1);
                self.send_wire(
                    s,
                    query.def_at,
                    to,
                    AxmlMessage::DeployQuery {
                        query_xml: Body::query(query.query),
                        as_service,
                    },
                    Intent::Reply { out: (gate, 0) },
                )?;
                self.register_pending(s, gate, at, Cont::Discard { out })
            }

            // ---- sequencing ------------------------------------------
            Expr::Seq(es) => {
                self.obs.metrics.seq_steps += es.len() as u64;
                let mut rest: VecDeque<Expr> = es.into();
                match rest.pop_front() {
                    None => self.fill(s, out, Vec::new()),
                    Some(first) => self.eval_then(s, at, first, Cont::SeqStep { rest, out }),
                }
            }
        }
    }

    pub(super) fn resume(
        &mut self,
        s: &mut EvalSession,
        peer: PeerId,
        cont: Cont,
        input: &mut Vec<Vec<Tree>>,
    ) -> CoreResult<()> {
        // A continuation that waits on one part takes it whole.
        let first = |input: &mut Vec<Vec<Tree>>| input.first_mut().map(take).unwrap_or_default();
        match cont {
            Cont::ApplyFinish { query, out } => {
                let res = query.eval_with_docs(input, &self.peers[peer.index()])?;
                self.fill(s, out, res)?;
                Ok(())
            }
            Cont::ScReady {
                provider,
                service,
                forward,
                out,
            } => self.start_service_call(
                s,
                provider,
                ScCall {
                    caller: peer,
                    service: &service,
                    param_forests: input.iter_mut().map(take).collect(),
                    forward: &forward,
                },
                out,
            ),
            Cont::SendPeer { dest, out } => {
                self.record_def(3, peer, "send");
                let forest = first(input);
                // Kept local: a send's data has no effect at its receiver.
                if dest != peer {
                    self.send_wire(
                        s,
                        peer,
                        dest,
                        AxmlMessage::Data {
                            payload: Body::forest(forest),
                            tag: DataTag::Send,
                        },
                        Intent::None,
                    )?;
                }
                // Definition (3): the send expression itself evaluates
                // to ∅; the data's arrival is the side effect (captured
                // by EvalAt delegation when the destination is the
                // delegating peer).
                self.fill(s, out, Vec::new())?;
                Ok(())
            }
            Cont::SendNodes { addrs, out } => {
                self.record_def(4, peer, "send-nodes");
                let forest = first(input);
                let gate = self.deliver_to_nodes(s, peer, &addrs, &Body::shared(forest))?;
                self.register_pending(s, gate, peer, Cont::Discard { out })?;
                Ok(())
            }
            Cont::SendNewDoc {
                peer: dest,
                name,
                out,
            } => {
                self.record_def(3, peer, "send-newdoc");
                let gate = s.new_slot(1);
                self.send_wire(
                    s,
                    peer,
                    dest,
                    AxmlMessage::InstallDoc {
                        name,
                        payload: Body::forest(first(input)),
                    },
                    Intent::Reply { out: (gate, 0) },
                )?;
                self.register_pending(s, gate, peer, Cont::Discard { out })
            }
            Cont::TreeFinish {
                mut tree,
                grafts,
                out,
            } => {
                for (i, parent) in grafts.iter().enumerate() {
                    if let Some(p) = parent {
                        for r in &input[i] {
                            tree.graft(*p, r, r.root())?;
                        }
                    }
                }
                self.fill(s, out, vec![tree])?;
                Ok(())
            }
            Cont::SeqStep { mut rest, out } => match rest.pop_front() {
                None => self.fill(s, out, first(input)),
                Some(next) => self.eval_then(s, peer, next, Cont::SeqStep { rest, out }),
            },
            Cont::ReplyData {
                reply_to,
                tag,
                remote_out,
            } => {
                let payload = Body::forest(first(input));
                let reply = AxmlMessage::Data { payload, tag };
                self.send_wire(s, peer, reply_to, reply, Intent::Reply { out: remote_out })
            }
            Cont::Discard { out } => {
                self.fill(s, out, Vec::new())?;
                Ok(())
            }
        }
    }

    /// `eval@at(d@home)` for a concrete document: definition (1) when it
    /// is hosted here, definition (5) otherwise.
    fn fetch_doc(
        &mut self,
        s: &mut EvalSession,
        at: PeerId,
        home: PeerId,
        name: DocName,
        out: Out,
    ) -> CoreResult<()> {
        if home == at {
            self.record_def(1, at, "doc");
            let tree = self.peers[at.index()].doc(&name, at)?.clone();
            self.fill(s, out, vec![tree])
        } else {
            let expr = Expr::Doc {
                name,
                at: PeerRef::At(home),
            };
            self.fetch_remote(s, at, home, expr, out)
        }
    }

    /// Definition (5): `eval@at(x@loc)` for remote `x` — ship a request
    /// that *names* the datum (a literal `t@loc` is identified by
    /// reference, as the paper's `n@p` identifiers would, so fetching a
    /// tree never ships the tree's own bytes in the request direction);
    /// the owner evaluates and ships the result back.
    fn fetch_remote(
        &mut self,
        s: &mut EvalSession,
        at: PeerId,
        loc: PeerId,
        expr: Expr,
        out: Out,
    ) -> CoreResult<()> {
        self.record_def(5, at, "fetch");
        let (expr_xml, intent) = match expr {
            Expr::Tree { tree, .. } => (
                format!(
                    r#"<fetch kind="tree" at="p{}" ref="{:016x}"/>"#,
                    loc.0,
                    axml_xml::equiv::canonical_hash(&tree, tree.root())
                )
                .into(),
                Intent::FetchTree { tree, out },
            ),
            expr => (
                Body::expr(expr),
                Intent::Request {
                    tag: DataTag::Fetch,
                    out,
                },
            ),
        };
        self.send_wire(s, at, loc, AxmlMessage::Request { expr_xml }, intent)
    }

    /// A request arriving at `to` from `from`: its shipped expression is
    /// taken out of the body — as a data message hands its trees over —
    /// relocated to `to` and evaluated there. A fetch replies to the
    /// sender with its value; a delegation replies when the expression
    /// sends its value straight back, and otherwise fills `out` with ∅
    /// once done.
    pub(super) fn run_request(
        &mut self,
        s: &mut EvalSession,
        from: PeerId,
        to: PeerId,
        body: Body,
        tag: DataTag,
        out: Out,
    ) -> CoreResult<()> {
        let mut expr = body.into_expr()?;
        expr.relocate_query_defs(to);
        let reply = Cont::ReplyData {
            reply_to: from,
            tag,
            remote_out: out,
        };
        match (tag, expr) {
            (
                DataTag::DelegatedResult,
                Expr::Send {
                    dest: SendDest::Peer(back),
                    payload,
                },
            ) if back == from => self.eval_then(s, to, *payload, reply),
            (DataTag::DelegatedResult, other) => {
                self.eval_then(s, to, other, Cont::Discard { out })
            }
            (_, expr) => self.eval_then(s, to, expr, reply),
        }
    }

    /// Definition (1) + (6): copy a tree, activating its immediate `sc`
    /// elements concurrently. Results with an explicit forward list
    /// leave side effects elsewhere; calls without one accumulate as
    /// siblings of the `sc` node (§2.2 step 3), with the `sc` kept in
    /// place (AXML semantics — the call may stream more later).
    fn materialize_tree_tasks(
        &mut self,
        s: &mut EvalSession,
        at: PeerId,
        tree: &Tree,
        out: Out,
    ) -> CoreResult<()> {
        let copy = tree.clone();
        let mut active = Vec::new();
        for sc_id in ScNode::find_all(&copy, copy.root()) {
            let sc = ScNode::parse(&copy, sc_id)?;
            if sc.mode != ActivationMode::Immediate {
                continue;
            }
            let parent = if sc.forward.is_empty() {
                Some(ScNode::host(&copy, sc_id)?)
            } else {
                None
            };
            active.push((sc, parent));
        }
        if active.is_empty() {
            self.fill(s, out, vec![copy])?;
            return Ok(());
        }
        let slot = s.new_slot(active.len());
        let mut grafts = Vec::with_capacity(active.len());
        for (i, (sc, parent)) in active.into_iter().enumerate() {
            grafts.push(parent);
            self.start_service_call(
                s,
                sc.provider,
                ScCall {
                    caller: at,
                    service: &sc.service,
                    param_forests: sc.param_forests(),
                    forward: &sc.forward,
                },
                (slot, i),
            )?;
        }
        self.register_pending(
            s,
            slot,
            at,
            Cont::TreeFinish {
                tree: copy,
                grafts,
                out,
            },
        )?;
        Ok(())
    }

    /// §2.2's activation steps 1–3 / definition (6), as engine tasks:
    /// resolve the provider, ship the parameters, and let the provider
    /// run the service when the `Invoke` arrives.
    fn start_service_call(
        &mut self,
        s: &mut EvalSession,
        provider: PeerRef,
        call: ScCall<'_>,
        out: Out,
    ) -> CoreResult<()> {
        match provider {
            PeerRef::At(p) => self.dispatch_service_call(s, p, call, out),
            // Definition (9): on a failover the parameters are
            // re-shipped to the newly picked provider.
            PeerRef::Any => {
                self.resolve_any(s, call.caller, call.service, |sys, s, prov, concrete| {
                    let call = ScCall {
                        service: &concrete,
                        param_forests: call.param_forests.clone(),
                        ..call
                    };
                    sys.dispatch_service_call(s, prov, call, out)
                })
            }
        }
    }

    /// The resolved-provider half of definition (6): charge the call and
    /// ship the parameters. A provider calling its own service sends
    /// itself the `Invoke`, which its receiver runs at once.
    fn dispatch_service_call(
        &mut self,
        s: &mut EvalSession,
        prov: PeerId,
        call: ScCall<'_>,
        out: Out,
    ) -> CoreResult<()> {
        let caller = call.caller;
        self.check_peer(prov)?;
        self.record_def(6, caller, "sc");
        let call_id = self.fresh_call_id();
        let now = self.now_ms();
        self.obs.record(TraceEvent::ServiceCall {
            caller,
            provider: prov,
            service: call.service.shared(),
            call_id,
            at_ms: now,
        });
        // Step 1: params to the provider (the service runs on arrival —
        // a missing service or arity clash is still charged the invoke,
        // exactly as a real provider would reject after receiving).
        self.send_wire(
            s,
            caller,
            prov,
            AxmlMessage::Invoke {
                service: call.service.clone(),
                params: call.param_forests.into_iter().map(Body::forest).collect(),
                forward: call.forward.to_vec(),
                call_id,
            },
            Intent::Reply { out },
        )
    }

    /// §2.2 steps 2–3 at the provider, run by the `Invoke`'s receiver:
    /// apply the implementation query, then ship results back (or to the
    /// forward list). Kept local: an answer to one's own call, which as a
    /// `Response` would measure (walk) every result view.
    pub(super) fn run_service_at(
        &mut self,
        s: &mut EvalSession,
        prov: PeerId,
        call: ScCall<'_>,
        call_id: u64,
        out: Out,
    ) -> CoreResult<()> {
        let ScCall {
            caller,
            service,
            param_forests,
            forward,
        } = call;
        let results = self.service_results(prov, service, param_forests)?;
        if forward.is_empty() {
            if prov != caller {
                self.send_wire(
                    s,
                    prov,
                    caller,
                    AxmlMessage::Response {
                        call_id,
                        payload: Body::forest(results),
                    },
                    Intent::Reply { out },
                )
            } else {
                self.fill(s, out, results)?;
                Ok(())
            }
        } else {
            let gate = self.deliver_to_nodes(s, prov, forward, &Body::shared(results))?;
            self.register_pending(s, gate, prov, Cont::Discard { out })?;
            Ok(())
        }
    }

    /// §2.2 step 2, the provider-side evaluation of every service call:
    /// the answer the provider's memo kept for this call at its current
    /// stamp, else the service body run on the parameters (and kept when
    /// it succeeds). Either way the same forest.
    fn service_results(
        &mut self,
        prov: PeerId,
        service: &ServiceName,
        params: Vec<Vec<Tree>>,
    ) -> CoreResult<Vec<Tree>> {
        let state = &mut self.peers[prov.index()];
        let at = state.stamp();
        if let Some(results) = state.calls.get(at, service, &params) {
            self.obs.metrics.service_reuses += 1;
            return Ok(results.to_vec());
        }
        let results = run_service(state, prov, service, &params)?;
        state.calls.keep(at, service, params, results.clone());
        Ok(results)
    }

    /// The engine form of [`AxmlSystem::call_service`]'s old synchronous
    /// contract: run one service call in its own session and block until
    /// the result materializes (used by lazy/type-driven activation).
    pub(crate) fn call_service(
        &mut self,
        caller: PeerId,
        provider: PeerRef,
        service: &ServiceName,
        param_forests: Vec<Vec<Tree>>,
        forward: &[NodeAddr],
    ) -> CoreResult<Vec<Tree>> {
        let call = ScCall {
            caller,
            service,
            param_forests,
            forward,
        };
        self.blocking(
            |sys, s| {
                let slot = s.new_slot(1);
                sys.start_service_call(s, provider, call, (slot, 0))?;
                Ok(slot)
            },
            |s, slot| Ok(s.take(slot)?),
        )
    }

    /// Definition (4): one concurrent delivery per `n@p` address of
    /// `body`, a [`Body::shared`] one: measured once, and shared by every
    /// message that carries it. Each is a `Data(Forward)` whose receiver
    /// grafts the forest, an address on `from` itself included (a local
    /// send receives at once). Returns the gate slot that becomes ready
    /// once every graft landed. An address naming an unknown peer fails
    /// the whole list before anything is sent.
    pub(crate) fn deliver_to_nodes(
        &mut self,
        s: &mut EvalSession,
        from: PeerId,
        addrs: &[NodeAddr],
        body: &Body,
    ) -> CoreResult<usize> {
        for addr in addrs {
            self.check_peer(addr.peer)?;
        }
        let gate = s.new_slot(addrs.len());
        for (i, addr) in addrs.iter().enumerate() {
            self.send_wire(
                s,
                from,
                addr.peer,
                AxmlMessage::Data {
                    payload: body.clone(),
                    tag: DataTag::Forward,
                },
                Intent::Graft {
                    addr: addr.clone(),
                    notify: (gate, i),
                },
            )?;
        }
        Ok(gate)
    }

    /// Graft a forest under the addressed node, found with one lookup
    /// that checks it before it borrows: a failed graft moves no stamp.
    pub(super) fn graft_at(&mut self, addr: &NodeAddr, forest: &[Tree]) -> CoreResult<()> {
        let docs = &mut self.peer_mut(addr.peer).docs;
        let tree = docs.node_mut(&addr.doc, addr.node).map_err(|e| match e {
            axml_xml::XmlError::NoSuchDocument(_) => CoreError::NoSuchDoc {
                doc: addr.doc.clone(),
                at: addr.peer,
            },
            e => e.into(),
        })?;
        for t in forest {
            tree.graft(addr.node, t, t.root())?;
        }
        Ok(())
    }

    pub(super) fn install_new_doc(
        &mut self,
        at: PeerId,
        name: &DocName,
        forest: &[Tree],
    ) -> CoreResult<()> {
        // The name may have arrived in a message: intern it within the
        // label budget.
        let label = Label::try_new(name.as_str())
            .map_err(|full| CoreError::Malformed(format!("new document `{name}`: {full}")))?;
        let mut doc = Tree::new(label);
        let root = doc.root();
        for t in forest {
            doc.graft(root, t, t.root()).expect("fresh root");
        }
        self.peers[at.index()].install_doc(Document::new(name.clone(), doc))
    }

    /// Record one firing of paper definition `def` at `peer`: its
    /// [`TraceEvent::Definition`] is counted and, when a sink is
    /// attached, streamed.
    pub(crate) fn record_def(&mut self, def: u8, peer: PeerId, expr: &'static str) {
        let at_ms = self.net.now_ms();
        self.obs.record(TraceEvent::Definition {
            def,
            peer,
            expr: expr.into(),
            at_ms,
        });
    }
}

/// Apply `prov`'s implementation query of `service` to the parameter
/// forests.
fn run_service(
    state: &PeerState,
    prov: PeerId,
    service: &ServiceName,
    params: &[Vec<Tree>],
) -> CoreResult<Vec<Tree>> {
    let svc = state.service(service, prov)?;
    if svc.query.arity() != params.len() {
        return Err(CoreError::Query(axml_query::QueryError::ArityMismatch {
            expected: svc.query.arity(),
            got: params.len(),
        }));
    }
    Ok(svc.query.eval_with_docs(params, state)?)
}
