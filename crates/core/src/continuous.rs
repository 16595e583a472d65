//! Continuous services and live AXML documents — §2.2.
//!
//! *"AXML also supports calls to continuous services. When such a call is
//! activated, step 1 takes place just once, while steps 2 and 3, together,
//! occur repeatedly … the response trees successively sent accumulate as
//! siblings of the sc node."*
//!
//! [`AxmlSystem::activate_document`] parses a hosted document's `sc`
//! elements and turns the `Immediate` ones into live [`Subscription`]s
//! (performing the initial exchange); `@after` chains become subscriptions
//! triggered by their predecessor's answers. [`AxmlSystem::feed`] appends a
//! new tree to a source document and propagates: every subscription whose
//! service reads that document ships only its **new** results to its sink
//! — the forward list, or the `sc`'s parent by default.
//!
//! **Per call: evaluation.** Definition (2) produces a result per *call*,
//! not per caller, so the subscriptions of one provider document that
//! registered the same query with the same parameters — a `Call` —
//! share what the query computes. Its full answer is kept beside the
//! document's matching index as a tree of its own (a copy: views of the
//! document would pin its arena and make every later append copy it):
//! the first member that has to evaluate in full scans and stores it, the
//! rest take it. A feed that finds the watchers in step evaluates the
//! plan over the appended child once per hit call, where
//! [`pick_strategy`] makes that exact; the result goes to every hit
//! member and onto the end of the stored answer, so a subscription that
//! joins a live call later scans nothing. Only calls reading exactly one
//! document are shared, and only under [`MatcherMode::Shared`].
//!
//! **Per subscription: delivery.** What a member has been sent
//! (`emitted`, `exact`), what of a batch is therefore new to it
//! (`admit`/`record`/`retract`), its `delivered` count, its
//! `SubscriptionDelta` event and one `Data` message per sink are its
//! own, in ascending id order — deliveries, traces and the ledger do not
//! show whether an answer was computed or taken. `emitted` is a
//! [`CanonMultiset`]: per distinct tree sent, a 128-bit
//! [`canonical_digest`] and two counts, never the tree or its canonical
//! form. What a feed computes for a hit call is digested once, for all
//! of the call's members: the digests sit beside the results, and a
//! member after the first takes both, records the digests and walks no
//! tree. Its own share of the feed is a lookup of itself and one of its
//! call's slot, a count per result, and its delivery. Call keys are
//! digests too.
//!
//! **When a stored answer holds.** Exactly while the document's
//! [`Document::stamp`] is `Watch::answers_at` — the stamp the answers
//! were computed at, or carried to: an in-step feed moves it from the
//! stamp it found to the stamp it leaves, which keeps the answers of the
//! calls its probe skipped (the probe's own guarantee) and of the hit
//! calls it brought up to date, and drops the rest. Any other mutation
//! moves the stamp alone, a failed feed forgets `answers_at`, and either
//! way the next full evaluation of a call scans again.

use crate::engine::{EvalSession, Intent};
use crate::error::{CoreError, CoreResult};
use crate::expr::PeerRef;
use crate::message::{AxmlMessage, Body};
use crate::peer::PeerState;
use crate::sc::{ActivationMode, ScNode};
use crate::system::AxmlSystem;
use axml_obs::TraceEvent;
use axml_query::delta::{pick_strategy, DeltaStrategy};
use axml_query::eval::{Ctx, Delta};
use axml_query::matcher::MatchIndex;
use axml_query::plan::SourceRef;
use axml_query::Query;
use axml_xml::equiv::{canonical_digest, CanonMultiset};
use axml_xml::ids::{DocName, NodeAddr, PeerId, ServiceName};
use axml_xml::store::Document;
use axml_xml::tree::{NodeId, Tree};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::mem::take;
use std::sync::Arc;

/// What causes a subscription to re-evaluate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trigger {
    /// A change of any of the provider-side documents the service reads.
    DocChange(Vec<DocName>),
    /// New answers of the sibling call with this `@id` (§2.2's
    /// activate-after chaining).
    AfterAnswer(String),
}

/// How [`AxmlSystem::feed`] decides which affected subscriptions to
/// re-evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatcherMode {
    /// Probe the shared matching index once per delta and re-evaluate
    /// only the subscriptions it reports (plus any it cannot reason
    /// about). The default.
    #[default]
    Shared,
    /// Re-evaluate every affected subscription in full, each by itself —
    /// the per-subscription reference loop that all three of the default's
    /// shortcuts (skipping a subscription, evaluating one over the delta
    /// alone, sharing one evaluation among the subscriptions of a call)
    /// must stay bit-identical to.
    Naive,
}

/// A live (continuous) service call.
#[derive(Debug, Clone)]
pub struct Subscription {
    /// Subscription id.
    pub id: u64,
    /// The `sc`'s `@id`, if any (targets of `@after` chains).
    pub sc_id: Option<String>,
    /// The peer hosting the calling document.
    pub caller: PeerId,
    /// The calling document.
    pub doc: DocName,
    /// The resolved provider.
    pub provider: PeerId,
    /// The resolved service name.
    pub service: ServiceName,
    /// Parameter forests (shipped once, at activation — step 1).
    pub params: Vec<Vec<Tree>>,
    /// Where results accumulate.
    pub sink: Vec<NodeAddr>,
    /// What re-triggers evaluation.
    pub trigger: Trigger,
    /// Everything delivered so far.
    emitted: CanonMultiset,
    /// Was `emitted` exactly the answer when the subscription last
    /// evaluated in full? Once a result has gone away again (a detached
    /// node, a changed aggregate) it is a superset, the full arm would
    /// hold back a later copy of that result as already delivered, and
    /// an evaluation over the delta alone cannot know to do the same.
    exact: bool,
    /// The service's query as activation found it: what the matching
    /// index holds, what `semi_naive` and `call` were derived from, and
    /// what every pump evaluates — a service redefined under a live
    /// subscription reaches the calls activated after that. `None` for an
    /// `@after` call, which is in no index and reads its service as it
    /// fires.
    query: Option<Query>,
    /// May a feed of the one document the service reads be answered from
    /// the appended child alone? [`pick_strategy`]'s verdict on `query`.
    semi_naive: bool,
    /// The [`Call`] whose evaluations this subscription shares, if it
    /// reads exactly one document.
    call: Option<Arc<CallKey>>,
    /// Total trees delivered.
    pub delivered: usize,
}

/// What a feed of one provider-side document consults.
#[derive(Debug)]
struct Watch {
    /// The shared matching index over the doc-triggered subscriptions
    /// reading the document.
    index: MatchIndex,
    /// The document's stamp when its watchers were last known to be in
    /// step with it: as the first of them registered, then as each feed
    /// that pumped all it had to left it. Evaluating a delta alone
    /// presumes `emitted` is the answer over everything before the
    /// append, and any mutation that is not such a feed — a delivery
    /// grafted into the document, a `peer_mut()` edit, a lazy call's
    /// graft, a replacement, a feed that failed half-way — breaks that
    /// silently. It also moves the stamp, so the next feed sees the
    /// mismatch and sends every watcher through the full arm once.
    in_step_at: Option<u64>,
    /// The distinct calls among the watchers that read this document alone.
    calls: HashMap<Arc<CallKey>, Call>,
    /// The document stamp at which every stored [`Call::answer`] is its
    /// call's answer. One stamp for all of them, so that a feed carries
    /// the answers of the calls it does not hit by moving it.
    answers_at: Option<u64>,
}

/// What tells the calls on one document apart: the digest of the query's
/// wire text and the canonical digests of the parameter forests. A key is
/// a bucket, not yet a verdict: parameters equal up to sibling order share
/// one, and an answer's order and bytes may depend on the order they were
/// written in — [`Watch::join`] compares them as written.
type CallKey = (u128, Vec<Vec<u128>>);

/// One distinct call: a query and its parameters, evaluated once for all
/// the subscriptions that made it.
#[derive(Debug)]
struct Call {
    /// The parameters, as its first member wrote them.
    params: Vec<Vec<Tree>>,
    /// Live subscriptions sharing it; the entry dies with the last.
    members: usize,
    /// The full answer at [`Watch::answers_at`], in a tree of its own: one
    /// child of the root per result, in result order.
    answer: Option<Tree>,
    /// The canonical digests of `answer`'s results, in result order: what
    /// a member taking the answer admits it by, walking none of it.
    digests: Vec<u128>,
}

/// `results` copied under `answer`'s root. Copied, because a result is
/// usually a view into the document it was found in, and a stored view
/// would make the next feed's graft copy that whole document first.
fn append(answer: &mut Tree, results: &[Tree]) {
    let root = answer.root();
    for r in results {
        answer
            .graft(root, r, r.root())
            .expect("an answer's root is an element");
    }
}

impl Watch {
    /// Count one more subscription calling `key` with `params`, and say
    /// which call it shares: none if the bucket's call wrote equivalent
    /// parameters in another order.
    fn join(&mut self, key: CallKey, params: &[Vec<Tree>]) -> Option<Arc<CallKey>> {
        match self.calls.entry(Arc::new(key)) {
            Entry::Occupied(mut e) => (e.get().params == params).then(|| {
                e.get_mut().members += 1;
                Arc::clone(e.key())
            }),
            Entry::Vacant(e) => {
                let key = Arc::clone(e.key());
                e.insert(Call {
                    params: params.to_vec(),
                    members: 1,
                    answer: None,
                    digests: Vec::new(),
                });
                Some(key)
            }
        }
    }

    fn leave(&mut self, key: &Arc<CallKey>) {
        if let Some(call) = self.calls.get_mut(key) {
            call.members -= 1;
            if call.members == 0 {
                self.calls.remove(key);
            }
        }
    }

    /// The results of `key`'s call over a document stamped `stamp`, if
    /// its answer is stored: views of the answer's own tree, and their
    /// digests.
    fn answer(&self, key: &Arc<CallKey>, stamp: u64) -> Option<(Vec<Tree>, &[u128])> {
        let call = self.calls.get(key)?;
        let answer = call.answer.as_ref()?;
        let view = |&r| answer.subtree(r).expect("a child of the root");
        (self.answers_at == Some(stamp)).then(|| {
            let results = answer.children(answer.root()).iter().map(view);
            (results.collect(), &call.digests[..])
        })
    }

    /// Store `results`, whose digests are `digests`, as the answer of
    /// `key`'s call over a document stamped `stamp`, forgetting the
    /// answers of any other stamp.
    fn keep(&mut self, key: &Arc<CallKey>, stamp: u64, results: &[Tree], digests: &[u128]) {
        if self.answers_at != Some(stamp) {
            self.calls.values_mut().for_each(|c| c.answer = None);
            self.answers_at = Some(stamp);
        }
        if let Some(call) = self.calls.get_mut(key) {
            append(call.answer.insert(Tree::new("answer")), results);
            call.digests = digests.to_vec();
        }
    }
}

/// The canonical digests of `trees`, in order.
fn digests(trees: &[Tree]) -> Vec<u128> {
    trees
        .iter()
        .map(|t| canonical_digest(t, t.root()))
        .collect()
}

/// What an in-step feed offers the watchers it hits: the child it
/// appended and, per hit call, what the call's query makes of that child
/// alone — evaluated for the first member that asks, handed to the
/// others. It lives on the feed's stack: the results are mostly views
/// into the fed document, and must be gone before the next feed grafts
/// into it.
struct Appended<'a> {
    delta: Delta<'a>,
    /// Were the stored answers those of the document before the append —
    /// and so, for the calls the probe skipped, after it?
    carried: bool,
    /// Per call a member of which was pumped: the results over the
    /// appended child alone, once evaluated.
    calls: HashMap<Arc<CallKey>, Option<Fresh>>,
}

/// What a call's query made of an appended child: the results, and their
/// canonical digests — walked once, for every member of the call.
struct Fresh {
    trees: Vec<Tree>,
    digests: Vec<u128>,
}

/// What one pump found new for its subscription.
struct Found<'f> {
    fresh: Cow<'f, [Tree]>,
    /// Results recomputed and held back as sent before.
    suppressed: usize,
    provider: PeerId,
    /// Where `fresh` goes, and the `@after` calls that fire once it has
    /// gone; `None` when nothing is fresh.
    route: Option<(Vec<NodeAddr>, Vec<u64>)>,
}

/// All state of the continuous engine. [`SubscriptionTable::insert`] and
/// [`SubscriptionTable::remove`] are the only code that adds or drops a
/// subscription, so its parts cannot disagree.
#[derive(Debug, Default)]
pub(crate) struct SubscriptionTable {
    /// The live subscriptions, by id. Ids come from one counter, so
    /// ascending id is activation order.
    live: HashMap<u64, Subscription>,
    /// Deliveries are identical in both modes; only evaluation work (and
    /// the `matcher_*` counters) differ.
    mode: MatcherMode,
    /// Per (provider, document): its doc-triggered subscriptions. An
    /// entry dies with its last subscription.
    watches: HashMap<(PeerId, DocName), Watch>,
    /// Per `sc` id: the subscriptions chained `after` it.
    after: HashMap<String, BTreeSet<u64>>,
    /// Per (hosting peer, document): the live subscriptions its
    /// activation created — makes re-activation idempotent.
    book: HashMap<(PeerId, DocName), BTreeSet<u64>>,
    /// Subscription ids currently being pumped — the re-entrancy guard
    /// that turns an undetected `@after` cycle into a typed error
    /// instead of a stack overflow.
    pump_stack: Vec<u64>,
    /// Evaluations in full and over an appended child alone, so far —
    /// what the unit tests hold "once per call" against.
    #[cfg_attr(not(test), allow(dead_code))]
    evals: (usize, usize),
    /// Results handed to the canonical walk so far: digested for a call,
    /// or recorded, admitted or retracted by one subscription.
    #[cfg_attr(not(test), allow(dead_code))]
    walks: usize,
}

impl SubscriptionTable {
    /// Add a subscription; a doc-triggered one registers `query` (its
    /// service's) under every document it reads, looked up in `peers`.
    fn insert(&mut self, mut sub: Subscription, query: Option<Query>, peers: &[PeerState]) {
        match (&sub.trigger, &query) {
            (Trigger::DocChange(deps), Some(query)) => {
                for d in deps {
                    let watch = self
                        .watches
                        .entry((sub.provider, d.clone()))
                        .or_insert_with(|| Watch {
                            index: MatchIndex::new(d.clone()),
                            in_step_at: peers[sub.provider.index()]
                                .docs
                                .get(d)
                                .map(Document::stamp),
                            calls: HashMap::new(),
                            answers_at: None,
                        });
                    watch.index.register(sub.id, query);
                    // `in_step_at` and `answers_at` vouch for one document,
                    // so a subscription reading several always evaluates in
                    // full, and by itself.
                    if deps.len() == 1 {
                        let digest = |t: &Tree| canonical_digest(t, t.root());
                        let params = sub.params.iter().map(|f| f.iter().map(digest).collect());
                        let key = (query.wire_digest(), params.collect());
                        sub.call = watch.join(key, &sub.params);
                        sub.semi_naive = pick_strategy(query.plan(), &SourceRef::Doc(d.clone()))
                            == DeltaStrategy::SemiNaive;
                    }
                }
            }
            (Trigger::AfterAnswer(pred), _) => {
                self.after.entry(pred.clone()).or_default().insert(sub.id);
            }
            (Trigger::DocChange(_), None) => {}
        }
        self.book
            .entry((sub.caller, sub.doc.clone()))
            .or_default()
            .insert(sub.id);
        sub.query = query;
        self.live.insert(sub.id, sub);
    }

    /// Drop a subscription from the table, its indexes and calls, the
    /// `after` map and the book. Returns whether it existed.
    fn remove(&mut self, id: u64) -> bool {
        let Some(sub) = self.live.remove(&id) else {
            return false;
        };
        match sub.trigger {
            Trigger::DocChange(deps) => {
                for d in deps {
                    let key = (sub.provider, d);
                    if let Some(w) = self.watches.get_mut(&key) {
                        w.index.remove(id);
                        if let Some(call) = &sub.call {
                            w.leave(call);
                        }
                        if w.index.registered().is_empty() {
                            self.watches.remove(&key);
                        }
                    }
                }
            }
            Trigger::AfterAnswer(pred) => drop_id(&mut self.after, &pred, id),
        }
        drop_id(&mut self.book, &(sub.caller, sub.doc), id);
        true
    }
}

/// Take `id` out of `map[key]`; an entry dies with its last id.
fn drop_id<K: std::hash::Hash + Eq>(map: &mut HashMap<K, BTreeSet<u64>>, key: &K, id: u64) {
    if let Some(ids) = map.get_mut(key) {
        ids.remove(&id);
        if ids.is_empty() {
            map.remove(key);
        }
    }
}

impl AxmlSystem {
    /// Activate the `sc` elements of a document hosted at `at` — §2.2's
    /// activation, returning the new subscription ids. Results accumulate
    /// as siblings of each `sc` (or at its `forw` targets); continuous
    /// services keep streaming through [`AxmlSystem::feed`].
    ///
    /// Re-activation is idempotent: activating a document whose
    /// subscriptions are still live returns their existing ids instead
    /// of duplicating them (and double-delivering every feed). Once all
    /// of them have been cancelled, activating again starts fresh.
    ///
    /// Activation is atomic: on an error no subscription this call
    /// created stays live, so a corrected retry starts from scratch.
    pub fn activate_document(&mut self, at: PeerId, doc: &DocName) -> CoreResult<Vec<u64>> {
        let key = (at, doc.clone());
        if let Some(live) = self.subs.book.get(&key) {
            return Ok(live.iter().copied().collect());
        }
        match self.blocking(|sys, s| sys.activate_into(s, at, doc)) {
            Ok((ids, _)) => Ok(ids),
            Err(e) => {
                for id in self.subs.book.remove(&key).unwrap_or_default() {
                    self.subs.remove(id);
                }
                Err(e)
            }
        }
    }

    /// Which strategy [`AxmlSystem::feed`] uses to pick subscriptions to
    /// re-evaluate. [`MatcherMode::Naive`] forces the per-subscription
    /// reference loop (useful for differential testing and benchmarks).
    pub fn set_matcher_mode(&mut self, mode: MatcherMode) {
        self.subs.mode = mode;
    }

    fn activate_into(
        &mut self,
        s: &mut EvalSession,
        at: PeerId,
        doc: &DocName,
    ) -> CoreResult<Vec<u64>> {
        self.check_peer(at)?;
        let tree = self.peers[at.index()].doc(doc, at)?.clone();
        let mut calls: Vec<(NodeId, ScNode)> = Vec::new();
        for sc_node in ScNode::find_all(&tree, tree.root()) {
            let sc = ScNode::parse(&tree, sc_node)?;
            if sc.mode != ActivationMode::Lazy {
                calls.push((sc_node, sc));
            }
        }
        // Reject `@after` cycles across existing *and* about-to-exist
        // subscriptions before any wire traffic or state mutation; a
        // cyclic chain used to recurse `pump_into` without bound.
        self.check_after_cycles(&calls)?;
        let mut created = Vec::new();
        for (sc_node, sc) in calls {
            // Default sink: the sc's parent node in this document.
            let sink = if sc.forward.is_empty() {
                let parent = tree
                    .parent(sc_node)
                    .ok_or_else(|| CoreError::Malformed("sc element at document root".into()))?;
                vec![NodeAddr::new(at, doc.clone(), parent)]
            } else {
                sc.forward
            };
            let (provider, service) = match sc.provider {
                PeerRef::At(p) => (p, sc.service),
                PeerRef::Any => self.pick_any(at, &sc.service, &[])?,
            };
            self.check_peer(provider)?;
            let params: Vec<Vec<Tree>> = sc.params.into_iter().map(|p| vec![p]).collect();
            // The subscription id doubles as the call id of the wire
            // frame and of the `ServiceCall` trace event — assign it
            // *before* building either, so all three always agree.
            let id = self.fresh_call_id();
            // Step 1 happens once: ship the parameters now. The message
            // is pure accounting — the subscription machinery reads the
            // provider's state directly, so no receiver-side intent.
            if provider != at {
                let msg = AxmlMessage::Invoke {
                    service: service.clone(),
                    params: params.iter().cloned().map(Body::forest).collect(),
                    forward: sink.clone(),
                    call_id: id,
                };
                self.send_wire(s, at, provider, msg, Intent::None)?;
            }
            self.obs.metrics.service_calls += 1;
            let now = self.now_ms();
            let service_name = service.as_str().to_string();
            self.obs.emit(|| TraceEvent::ServiceCall {
                caller: at,
                provider,
                service: service_name,
                call_id: id,
                at_ms: now,
            });
            let (trigger, query) = match sc.mode {
                ActivationMode::After(pred) => (Trigger::AfterAnswer(pred), None),
                _ => {
                    let svc = self.peers[provider.index()].service(&service, provider)?;
                    let query = svc.query.clone();
                    (
                        Trigger::DocChange(query.doc_dependencies().to_vec()),
                        Some(query),
                    )
                }
            };
            created.push((id, matches!(trigger, Trigger::AfterAnswer(_))));
            self.subs.insert(
                Subscription {
                    id,
                    sc_id: sc.id,
                    caller: at,
                    doc: doc.clone(),
                    provider,
                    service,
                    params,
                    sink,
                    trigger,
                    emitted: CanonMultiset::default(),
                    exact: false,
                    query: None,
                    semi_naive: false,
                    call: None,
                    delivered: 0,
                },
                query,
                &self.peers,
            );
        }
        // Initial evaluation (steps 2–3) for non-`after` calls — done after
        // *all* subscriptions exist, so `@after` chains see their triggers.
        for &(id, is_after) in &created {
            if !is_after {
                self.pump_into(s, id, None)?;
            }
        }
        Ok(created.into_iter().map(|(id, _)| id).collect())
    }

    /// Detect cycles in the `@after` graph spanned by the current
    /// subscriptions plus the calls about to activate.
    /// Pumping a subscription whose `sc_id` is `p` fires every
    /// subscription `after="p"`, which in turn fires chains off its own
    /// `sc_id` — so there is an edge `p → s` for every subscription with
    /// trigger `AfterAnswer(p)` and id `s`, and a cycle means the pump
    /// recursion need not terminate.
    fn check_after_cycles(&self, calls: &[(NodeId, ScNode)]) -> CoreResult<()> {
        let mut edges: HashMap<&str, Vec<&str>> = HashMap::new();
        for (pred, ids) in &self.subs.after {
            let named = ids
                .iter()
                .filter_map(|id| self.subs.live[id].sc_id.as_deref());
            edges.entry(pred.as_str()).or_default().extend(named);
        }
        for (_, sc) in calls {
            if let (Some(sid), ActivationMode::After(pred)) = (&sc.id, &sc.mode) {
                edges.entry(pred.as_str()).or_default().push(sid.as_str());
            }
        }
        // Iterative DFS with white/grey/black coloring; on a grey hit,
        // report the cycle by name.
        let mut color: HashMap<&str, u8> = HashMap::new(); // 1 = on stack, 2 = done
        for &start in edges.keys() {
            if color.get(start).copied() == Some(2) {
                continue;
            }
            let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
            color.insert(start, 1);
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                let succs = edges.get(node).map_or(&[][..], |v| v.as_slice());
                if *next < succs.len() {
                    let succ = succs[*next];
                    *next += 1;
                    match color.get(succ).copied() {
                        Some(1) => {
                            let mut names: Vec<&str> = stack
                                .iter()
                                .map(|(n, _)| *n)
                                .skip_while(|n| *n != succ)
                                .collect();
                            names.push(succ);
                            return Err(CoreError::AfterCycle(names.join(" -> ")));
                        }
                        Some(2) => {}
                        _ => {
                            color.insert(succ, 1);
                            stack.push((succ, 0));
                        }
                    }
                } else {
                    color.insert(node, 2);
                    stack.pop();
                }
            }
        }
        Ok(())
    }

    /// Append `tree` under the root of `doc@at` and propagate through all
    /// affected subscriptions. Returns the number of result trees
    /// delivered downstream.
    pub fn feed(&mut self, at: PeerId, doc: impl Into<DocName>, tree: Tree) -> CoreResult<usize> {
        let doc = doc.into();
        let (n, _) = self.blocking(|sys, s| sys.feed_into(s, at, &doc, tree))?;
        Ok(n)
    }

    /// [`AxmlSystem::feed`] within an already-running session (used by
    /// replica maintenance when the update arrives over the wire).
    pub(crate) fn feed_into(
        &mut self,
        s: &mut EvalSession,
        at: PeerId,
        doc: &DocName,
        tree: Tree,
    ) -> CoreResult<usize> {
        self.check_peer(at)?;
        let no_doc = || CoreError::NoSuchDoc {
            doc: doc.clone(),
            at,
        };
        let d = self.peer_mut(at).docs.get_mut(doc).ok_or_else(no_doc)?;
        let (before, root) = (d.stamp(), d.tree().root());
        let child = d.tree_mut().graft(root, &tree, tree.root())?;
        let fed = d.stamp();
        // The affected subscriptions are exactly the ones registered in
        // this document's index. While they are in step with the document
        // one automaton pass over the delta decides, for every one of
        // them, whether its results can possibly have changed (fallback
        // registrations are always reported), and the hits may evaluate
        // over `child` alone. Otherwise — the reference mode, or a
        // document someone else has touched — all of them re-evaluate in
        // full.
        let key = (at, doc.clone());
        let Some(watch) = self.subs.watches.get_mut(&key) else {
            return Ok(0);
        };
        let shared = self.subs.mode == MatcherMode::Shared;
        let in_step = shared && watch.in_step_at == Some(before);
        // The answers stored for the document as the append found it are,
        // for the calls the probe skips, the answers after it too; the
        // hit calls' are taken out as their first member is pumped.
        let carried = in_step && watch.answers_at == Some(before);
        if carried {
            watch.answers_at = Some(fed);
        }
        let registered = watch.index.registered();
        let pumped = if in_step {
            watch.index.probe(&tree)
        } else {
            registered.clone()
        };
        if shared {
            let (all, hit) = (registered.len() as u64, pumped.len() as u64);
            self.obs.metrics.matcher_probes += all;
            self.obs.metrics.matcher_hits += hit;
            self.obs.metrics.matcher_skips += all - hit;
        }
        let feed = in_step.then(|| Appended {
            delta: Delta::DocChild { doc, child },
            carried,
            calls: HashMap::new(),
        });
        let delivered = self.pump_watchers(s, &key, pumped, feed, fed);
        // Only now, every pump having delivered: the watchers have seen
        // the document as this feed's graft left it. A delivery that
        // landed in it since has moved its stamp past `fed`. After a
        // pump that failed nothing is vouched for, stored answers
        // included: some may still lack the child.
        if let Some(watch) = self.subs.watches.get_mut(&key) {
            match delivered {
                Ok(_) => watch.in_step_at = Some(fed),
                Err(_) => watch.answers_at = None,
            }
        }
        delivered
    }

    /// Pump the watchers of `key`'s document that a feed has to, in
    /// ascending id order. `feed` is what the feed appended, while the
    /// document is as its graft left it (stamped `fed`).
    fn pump_watchers(
        &mut self,
        s: &mut EvalSession,
        key: &(PeerId, DocName),
        mut pumped: BTreeSet<u64>,
        mut feed: Option<Appended<'_>>,
        fed: u64,
    ) -> CoreResult<usize> {
        let (at, doc) = key;
        let mut delivered = 0;
        while let Some(id) = pumped.pop_first() {
            delivered += self.pump_into(s, id, feed.as_mut())?;
            // A delivery that landed in the fed document itself: the
            // watchers still to come would see more than the child, and
            // more than the probe looked at. All of them evaluate in
            // full, as the reference does — those skipped included.
            let stamp = || self.peers[at.index()].docs.get(doc).map(Document::stamp);
            if feed.is_some() && stamp() != Some(fed) {
                feed = None;
                let hits = pumped.len() as u64;
                if let Some(watch) = self.subs.watches.get(key) {
                    pumped = watch.index.registered().range(id + 1..).copied().collect();
                }
                let skipped = pumped.len() as u64 - hits;
                self.obs.metrics.matcher_hits += skipped;
                self.obs.metrics.matcher_skips -= skipped;
            }
        }
        Ok(delivered)
    }

    /// Pump one subscription inside an open session: deliver its new
    /// results and fire `@after` chains. `feed` is the child a feed just
    /// appended to the document the subscription reads, offered when its
    /// earlier deliveries are known to be the answer without that child;
    /// without it the pump re-evaluates in full. Returns the number of
    /// trees delivered (including chained deliveries). Guarded against
    /// `@after` cycles: a subscription already on the pump stack means
    /// the chain closed on itself, so the pump would recurse without bound.
    fn pump_into(
        &mut self,
        s: &mut EvalSession,
        id: u64,
        feed: Option<&mut Appended<'_>>,
    ) -> CoreResult<usize> {
        let stack = &self.subs.pump_stack;
        if stack.contains(&id) {
            let chain: Vec<String> = stack
                .iter()
                .skip_while(|p| **p != id)
                .map(|p| format!("#{p}"))
                .chain(std::iter::once(format!("#{id}")))
                .collect();
            return Err(CoreError::AfterCycle(chain.join(" -> ")));
        }
        self.subs.pump_stack.push(id);
        let out = self.pump_inner(s, id, feed);
        self.subs.pump_stack.pop();
        out
    }

    /// Step 2 of a pump: what the provider has for subscription `id` that
    /// it was not sent before, and how many results it recomputed to find
    /// that out. Evaluation is per [`Call`] where the subscription has
    /// one and the mode shares; everything else here is the
    /// subscription's own. The subscription is looked up once, here: the
    /// delivery to come takes its sinks and `@after` calls from the
    /// answer, and counts as delivered already.
    fn new_results<'f>(
        &mut self,
        id: u64,
        feed: Option<&'f mut Appended<'_>>,
    ) -> CoreResult<Found<'f>> {
        let SubscriptionTable {
            live,
            mode,
            watches,
            after,
            evals,
            walks,
            ..
        } = &mut self.subs;
        let no_sub = || CoreError::Malformed(format!("no subscription {id}"));
        let sub = live.get_mut(&id).ok_or_else(no_sub)?;
        let shared = *mode == MatcherMode::Shared;
        // May its results come from the appended child alone?
        let by_delta = sub.semi_naive && sub.exact;
        // The feed's slot for the subscription's call, reached with one
        // hash of its key, and whether the call is new to the feed.
        let (appended, slot) = match feed {
            Some(feed) => {
                let appended = (feed.delta, feed.carried);
                let slot = sub.call.as_ref().filter(|_| shared).map(|key| {
                    match feed.calls.entry(Arc::clone(key)) {
                        Entry::Occupied(e) => (e.into_mut(), false),
                        Entry::Vacant(e) => (e.insert(None), true),
                    }
                });
                (Some(appended), slot)
            }
            None => (None, None),
        };
        let (fresh, suppressed) = 'found: {
            let slot = match slot {
                // A later member of a call the feed has evaluated the
                // child for takes those results and their digests, and
                // consults nothing else of the call: this is the one
                // place a member borrows what another evaluated.
                Some((evaluated, _)) if by_delta && evaluated.is_some() => {
                    let evaluated: &'f Option<Fresh> = evaluated;
                    let found = evaluated.as_ref().expect("evaluated");
                    sub.emitted.record_digests(&found.digests);
                    break 'found (Cow::Borrowed(&found.trees[..]), 0);
                }
                slot => slot,
            };
            let state = &self.peers[sub.provider.index()];
            let query = match &sub.query {
                Some(query) => query,
                None => &state.service(&sub.service, sub.provider)?.query,
            };
            // The call's entry, and the stamp of the one document it reads.
            let mut call = match (shared, &sub.call, &sub.trigger) {
                (true, Some(key), Trigger::DocChange(deps)) => watches
                    .get_mut(&(sub.provider, deps[0].clone()))
                    .zip(state.docs.get(&deps[0]).map(Document::stamp))
                    .map(|(watch, stamp)| (watch, key, stamp)),
                _ => None,
            };
            // The first member of a call that a feed pumps takes the stored
            // answer out: it lacks the child. Evaluating the child puts it
            // back, brought up to date; a full evaluation replaces it.
            let lacks_child = match (&slot, &mut call, appended) {
                (Some((_, true)), Some((watch, key, _)), Some((_, carried))) => {
                    let call = watch.calls.get_mut(*key);
                    let stored = call.and_then(|c| Some((c.answer.take()?, take(&mut c.digests))));
                    stored.filter(|_| carried)
                }
                _ => None,
            };
            match appended.filter(|_| by_delta) {
                // … from the appended child alone: all of it is new,
                Some((delta, _)) => {
                    evals.1 += 1;
                    let fresh =
                        query
                            .plan()
                            .eval_ctx(&Ctx::with_delta(&sub.params, state, delta))?;
                    *walks += fresh.len();
                    let Some((slot, _)) = slot else {
                        sub.emitted.record(&fresh);
                        break 'found (Cow::Owned(fresh), 0);
                    };
                    let digests = digests(&fresh);
                    // … and the end of the call's answer.
                    if let (Some((mut answer, mut known)), Some((watch, key, _))) =
                        (lacks_child, call)
                    {
                        append(&mut answer, &fresh);
                        known.extend_from_slice(&digests);
                        if let Some(call) = watch.calls.get_mut(key) {
                            call.answer = Some(answer);
                            call.digests = known;
                        }
                    }
                    let found: &'f Fresh = slot.insert(Fresh {
                        trees: fresh,
                        digests,
                    });
                    sub.emitted.record_digests(&found.digests);
                    (Cow::Borrowed(&found.trees[..]), 0)
                }
                // … or from the current state, less what was delivered before.
                // A call's answer is digested once, by the member that
                // evaluates it; a subscription of its own digests its own.
                None => {
                    let stored = call
                        .as_ref()
                        .and_then(|(watch, key, stamp)| watch.answer(key, *stamp));
                    let (results, known) = match stored {
                        Some((results, known)) => (results, Some(Cow::Borrowed(known))),
                        None => {
                            evals.0 += 1;
                            let results = query.eval_with_docs(&sub.params, state)?;
                            let known = call.map(|(watch, key, stamp)| {
                                let known = digests(&results);
                                watch.keep(key, stamp, &results, &known);
                                Cow::Owned(known)
                            });
                            *walks += results.len();
                            (results, known)
                        }
                    };
                    let recomputed = results.len();
                    let fresh = match known {
                        Some(known) => sub.emitted.admit_digests(results, &known),
                        None => sub.emitted.admit(results),
                    };
                    sub.exact = sub.emitted.delivered() == recomputed;
                    let suppressed = recomputed - fresh.len();
                    (Cow::Owned(fresh), suppressed)
                }
            }
        };
        let route = (!fresh.is_empty()).then(|| {
            sub.delivered += fresh.len();
            let chained = sub.sc_id.as_ref().and_then(|sc_id| after.get(sc_id));
            (
                sub.sink.clone(),
                chained.into_iter().flatten().copied().collect(),
            )
        });
        Ok(Found {
            fresh,
            suppressed,
            provider: sub.provider,
            route,
        })
    }

    /// The pump body. Chained `@after` calls fire as soon as their
    /// predecessor's deliveries are *issued* (in flight) — they read
    /// provider-side documents, so issue order is enough.
    fn pump_inner(
        &mut self,
        s: &mut EvalSession,
        id: u64,
        feed: Option<&mut Appended<'_>>,
    ) -> CoreResult<usize> {
        // Step 2: the provider computes what is new …
        let Found {
            fresh,
            suppressed,
            provider,
            route,
        } = self.new_results(id, feed)?;
        self.obs.metrics.delta_fresh += fresh.len() as u64;
        self.obs.metrics.delta_suppressed += suppressed as u64;
        let now = self.now_ms();
        let fresh_n = fresh.len();
        self.obs.emit(|| TraceEvent::SubscriptionDelta {
            subscription: id,
            provider,
            fresh: fresh_n,
            suppressed,
            at_ms: now,
        });
        let Some((sink, chained)) = route else {
            return Ok(0);
        };
        // Step 3: ship to the sink (repeatedly, for continuous services).
        // Only what was issued to every sink counts as delivered: after
        // a failure the whole batch is new again at the next pump (and
        // counted in `delta_fresh` again — that is what evaluation found
        // new, not what arrived). A forward list is walked in order, so
        // the sinks before the failing one get the batch a second time:
        // delivery is at least once per sink, exactly once when no
        // delivery fails.
        if let Err(e) = self.deliver_to_nodes(s, provider, &sink, &fresh) {
            // Take back what `new_results` counted ahead of the delivery.
            self.subs.walks += fresh.len();
            if let Some(sub) = self.subs.live.get_mut(&id) {
                sub.emitted.retract(&fresh);
                sub.exact = false;
                sub.delivered -= fresh.len();
            }
            return Err(e);
        }
        let mut total = fresh.len();
        // §2.2: a call chained `after` this one activates per answer batch.
        for c in chained {
            total += self.pump_into(s, c, None)?;
        }
        Ok(total)
    }

    /// The live subscriptions, in activation order.
    pub fn subscriptions(&self) -> impl ExactSizeIterator<Item = &Subscription> + '_ {
        let mut live: Vec<&Subscription> = self.subs.live.values().collect();
        live.sort_unstable_by_key(|sub| sub.id);
        live.into_iter()
    }

    /// Cancel a subscription: the call stops streaming (results already
    /// accumulated stay where they landed — AXML streams are append-only).
    /// Returns whether a subscription with that id existed.
    pub fn unsubscribe(&mut self, id: u64) -> bool {
        self.subs.remove(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_net::link::LinkCost;

    /// client (p0) subscribes to a news service on server (p1).
    fn news_system() -> (AxmlSystem, PeerId, PeerId) {
        let mut sys = AxmlSystem::new();
        let client = sys.add_peer("client");
        let server = sys.add_peer("server");
        sys.net_mut().set_link(client, server, LinkCost::wan());
        sys.install_doc(
            server,
            "news",
            Tree::parse(r#"<news><item topic="db">v0</item></news>"#).unwrap(),
        )
        .unwrap();
        sys.register_declarative_service(
            server,
            "db-news",
            r#"for $i in doc("news")/item where $i/@topic = "db" return {$i}"#,
        )
        .unwrap();
        sys.install_doc(
            client,
            "digest",
            Tree::parse(r#"<digest><sc><peer>p1</peer><service>db-news</service></sc></digest>"#)
                .unwrap(),
        )
        .unwrap();
        (sys, client, server)
    }

    #[test]
    fn activation_delivers_initial_results() {
        let (mut sys, client, _server) = news_system();
        let subs = sys.activate_document(client, &"digest".into()).unwrap();
        assert_eq!(subs.len(), 1);
        let digest = sys.peer(client).docs.get(&"digest".into()).unwrap().tree();
        // sc + 1 initial item under the root (sc's parent)
        assert_eq!(digest.children(digest.root()).len(), 2);
        assert!(digest.serialize().contains("v0"));
    }

    #[test]
    fn feed_streams_only_new_results() {
        let (mut sys, client, server) = news_system();
        sys.activate_document(client, &"digest".into()).unwrap();
        sys.reset_stats();
        let delivered = sys
            .feed(
                server,
                "news",
                Tree::parse(r#"<item topic="db">v1</item>"#).unwrap(),
            )
            .unwrap();
        assert_eq!(delivered, 1, "only the new item crosses the wire");
        let digest = sys.peer(client).docs.get(&"digest".into()).unwrap().tree();
        assert!(digest.serialize().contains("v1"));
        assert_eq!(
            digest.children(digest.root()).len(),
            3,
            "v0 not re-delivered"
        );
        // exactly one data message server → client
        assert_eq!(sys.stats().link(server, client).messages, 1);
    }

    #[test]
    fn off_topic_items_not_delivered() {
        let (mut sys, client, server) = news_system();
        sys.activate_document(client, &"digest".into()).unwrap();
        let delivered = sys
            .feed(
                server,
                "news",
                Tree::parse(r#"<item topic="ai">v2</item>"#).unwrap(),
            )
            .unwrap();
        assert_eq!(delivered, 0);
        let digest = sys.peer(client).docs.get(&"digest".into()).unwrap().tree();
        assert!(!digest.serialize().contains("v2"));
    }

    #[test]
    fn forward_list_sinks_elsewhere() {
        let (mut sys, client, server) = news_system();
        let archive = sys.add_peer("archive");
        sys.install_doc(archive, "log", Tree::parse("<log/>").unwrap())
            .unwrap();
        let log_root = sys
            .peer(archive)
            .docs
            .get(&"log".into())
            .unwrap()
            .tree()
            .root();
        sys.install_doc(client, "digest2", {
            let mut t = Tree::parse("<digest2/>").unwrap();
            let root = t.root();
            let sc = ScNode {
                id: None,
                provider: PeerRef::At(server),
                service: "db-news".into(),
                params: vec![],
                forward: vec![NodeAddr::new(archive, "log", log_root)],
                mode: ActivationMode::Immediate,
            };
            sc.write(&mut t, root);
            t
        })
        .unwrap();
        sys.activate_document(client, &"digest2".into()).unwrap();
        sys.feed(
            server,
            "news",
            Tree::parse(r#"<item topic="db">v9</item>"#).unwrap(),
        )
        .unwrap();
        let log = sys.peer(archive).docs.get(&"log".into()).unwrap().tree();
        assert_eq!(log.children(log.root()).len(), 2, "initial + v9");
        let digest = sys.peer(client).docs.get(&"digest2".into()).unwrap().tree();
        assert_eq!(
            digest.children(digest.root()).len(),
            1,
            "nothing lands at the caller"
        );
    }

    #[test]
    fn after_chain_fires_per_answer() {
        let (mut sys, client, server) = news_system();
        // A logging service on the server, chained after the news call.
        sys.register_declarative_service(server, "stamp", r#"doc("stamps")/mark"#)
            .unwrap();
        sys.install_doc(
            server,
            "stamps",
            Tree::parse("<stamps><mark>seen</mark></stamps>").unwrap(),
        )
        .unwrap();
        sys.install_doc(
            client,
            "chained",
            Tree::parse(
                r#"<chained>
                     <sc id="first"><peer>p1</peer><service>db-news</service></sc>
                     <sc after="first"><peer>p1</peer><service>stamp</service></sc>
                   </chained>"#,
            )
            .unwrap(),
        )
        .unwrap();
        sys.activate_document(client, &"chained".into()).unwrap();
        let doc = sys.peer(client).docs.get(&"chained".into()).unwrap().tree();
        // initial news answer triggered the chained stamp call
        assert!(doc.serialize().contains("seen"));
        let before = doc.children(doc.root()).len();
        // another db item: news delivers, stamp re-fires but has no new
        // marks to deliver (delta semantics)
        sys.feed(
            server,
            "news",
            Tree::parse(r#"<item topic="db">v1</item>"#).unwrap(),
        )
        .unwrap();
        let doc = sys.peer(client).docs.get(&"chained".into()).unwrap().tree();
        assert_eq!(doc.children(doc.root()).len(), before + 1);
    }

    #[test]
    fn generic_provider_resolved_at_activation() {
        let (mut sys, client, server) = news_system();
        let mirror = sys.add_peer("mirror");
        sys.net_mut().set_link(client, mirror, LinkCost::lan());
        sys.install_doc(
            mirror,
            "news",
            Tree::parse(r#"<news><item topic="db">v0</item></news>"#).unwrap(),
        )
        .unwrap();
        sys.register_declarative_service(
            mirror,
            "db-news-m",
            r#"for $i in doc("news")/item where $i/@topic = "db" return {$i}"#,
        )
        .unwrap();
        sys.catalog_mut()
            .add_service_replica("db-news-any", server, "db-news");
        sys.catalog_mut()
            .add_service_replica("db-news-any", mirror, "db-news-m");
        sys.install_doc(
            client,
            "g",
            Tree::parse(r#"<g><sc><peer>any</peer><service>db-news-any</service></sc></g>"#)
                .unwrap(),
        )
        .unwrap();
        sys.set_pick_policy(crate::pick::PickPolicy::Closest);
        sys.activate_document(client, &"g".into()).unwrap();
        let sub = sys.subscriptions().next().unwrap();
        assert_eq!(sub.provider, mirror, "closest replica picked");
        assert_eq!(sub.delivered, 1);
    }

    #[test]
    fn feed_unknown_doc_errors() {
        let (mut sys, _client, server) = news_system();
        // Nothing changed, so nothing computed against the peer's state
        // (cost-model statistics, kept service answers) goes stale.
        let stamp = sys.peer(server).stamp();
        assert!(sys
            .feed(server, "nope", Tree::parse("<x/>").unwrap())
            .is_err());
        assert_eq!(sys.peer(server).stamp(), stamp, "unchanged");
        sys.feed(server, "news", Tree::parse("<x/>").unwrap())
            .unwrap();
        assert_ne!(sys.peer(server).stamp(), stamp, "changed");
    }
}

#[cfg(test)]
mod unsubscribe_tests {
    use super::*;
    use axml_net::link::LinkCost;

    #[test]
    fn unsubscribe_stops_streaming() {
        let mut sys = AxmlSystem::new();
        let client = sys.add_peer("client");
        let server = sys.add_peer("server");
        sys.net_mut().set_link(client, server, LinkCost::wan());
        sys.install_doc(server, "feed", Tree::parse("<feed/>").unwrap())
            .unwrap();
        sys.register_declarative_service(server, "items", r#"doc("feed")/item"#)
            .unwrap();
        sys.install_doc(
            client,
            "inbox",
            Tree::parse(r#"<inbox><sc><peer>p1</peer><service>items</service></sc></inbox>"#)
                .unwrap(),
        )
        .unwrap();
        let ids = sys.activate_document(client, &"inbox".into()).unwrap();
        sys.feed(server, "feed", Tree::parse("<item>a</item>").unwrap())
            .unwrap();
        assert!(sys.unsubscribe(ids[0]));
        assert!(!sys.unsubscribe(ids[0]), "idempotent");
        let delivered = sys
            .feed(server, "feed", Tree::parse("<item>b</item>").unwrap())
            .unwrap();
        assert_eq!(delivered, 0, "cancelled subscription must not fire");
        let inbox = sys.peer(client).docs.get(&"inbox".into()).unwrap().tree();
        assert!(inbox.serialize().contains(">a<"), "earlier results stay");
        assert!(!inbox.serialize().contains(">b<"));
    }

    #[test]
    fn after_cycle_rejected_at_activation() {
        let mut sys = AxmlSystem::new();
        let client = sys.add_peer("client");
        let server = sys.add_peer("server");
        sys.install_doc(server, "feed", Tree::parse("<feed/>").unwrap())
            .unwrap();
        sys.register_declarative_service(server, "items", r#"doc("feed")/item"#)
            .unwrap();
        sys.install_doc(
            client,
            "loop",
            Tree::parse(
                r#"<loop>
                     <sc id="a" after="b"><peer>p1</peer><service>items</service></sc>
                     <sc id="b" after="a"><peer>p1</peer><service>items</service></sc>
                   </loop>"#,
            )
            .unwrap(),
        )
        .unwrap();
        let err = sys.activate_document(client, &"loop".into()).unwrap_err();
        match &err {
            CoreError::AfterCycle(c) => {
                assert!(c.contains("a") && c.contains("b"), "{c}")
            }
            other => panic!("expected AfterCycle, got {other:?}"),
        }
        assert_eq!(
            sys.subscriptions().len(),
            0,
            "nothing half-activated after rejection"
        );
    }

    #[test]
    fn after_self_cycle_rejected() {
        let mut sys = AxmlSystem::new();
        let client = sys.add_peer("client");
        let server = sys.add_peer("server");
        sys.install_doc(server, "feed", Tree::parse("<feed/>").unwrap())
            .unwrap();
        sys.register_declarative_service(server, "items", r#"doc("feed")/item"#)
            .unwrap();
        sys.install_doc(
            client,
            "selfloop",
            Tree::parse(
                r#"<selfloop><sc id="a" after="a"><peer>p1</peer><service>items</service></sc></selfloop>"#,
            )
            .unwrap(),
        )
        .unwrap();
        let err = sys
            .activate_document(client, &"selfloop".into())
            .unwrap_err();
        assert!(matches!(err, CoreError::AfterCycle(_)), "{err:?}");
    }

    #[test]
    fn after_cycle_across_documents_rejected() {
        // `a after b` alone is fine (a dangling predecessor); closing the
        // loop from a *second* document must be rejected against the
        // already-live subscription set.
        let mut sys = AxmlSystem::new();
        let client = sys.add_peer("client");
        let server = sys.add_peer("server");
        sys.install_doc(server, "feed", Tree::parse("<feed/>").unwrap())
            .unwrap();
        sys.register_declarative_service(server, "items", r#"doc("feed")/item"#)
            .unwrap();
        sys.install_doc(
            client,
            "one",
            Tree::parse(
                r#"<one><sc id="a" after="b"><peer>p1</peer><service>items</service></sc></one>"#,
            )
            .unwrap(),
        )
        .unwrap();
        sys.activate_document(client, &"one".into()).unwrap();
        sys.install_doc(
            client,
            "two",
            Tree::parse(
                r#"<two><sc id="b" after="a"><peer>p1</peer><service>items</service></sc></two>"#,
            )
            .unwrap(),
        )
        .unwrap();
        let err = sys.activate_document(client, &"two".into()).unwrap_err();
        assert!(matches!(err, CoreError::AfterCycle(_)), "{err:?}");
    }

    #[test]
    fn reactivation_is_idempotent() {
        let mut sys = AxmlSystem::new();
        let client = sys.add_peer("client");
        let server = sys.add_peer("server");
        sys.install_doc(server, "feed", Tree::parse("<feed/>").unwrap())
            .unwrap();
        sys.register_declarative_service(server, "items", r#"doc("feed")/item"#)
            .unwrap();
        sys.install_doc(
            client,
            "inbox",
            Tree::parse(r#"<inbox><sc><peer>p1</peer><service>items</service></sc></inbox>"#)
                .unwrap(),
        )
        .unwrap();
        let first = sys.activate_document(client, &"inbox".into()).unwrap();
        let second = sys.activate_document(client, &"inbox".into()).unwrap();
        assert_eq!(first, second, "re-activation returns the existing ids");
        assert_eq!(sys.subscriptions().len(), 1, "no duplicate subscription");
        let delivered = sys
            .feed(server, "feed", Tree::parse("<item>a</item>").unwrap())
            .unwrap();
        assert_eq!(delivered, 1, "each update delivered exactly once");
        // Once every subscription from the first activation is cancelled,
        // activating again starts a fresh one.
        assert!(sys.unsubscribe(first[0]));
        let third = sys.activate_document(client, &"inbox".into()).unwrap();
        assert_eq!(third.len(), 1);
        assert_ne!(third[0], first[0]);
    }

    #[test]
    fn failed_activation_leaves_no_subscription_behind() {
        let mut sys = AxmlSystem::new();
        let client = sys.add_peer("client");
        let server = sys.add_peer("server");
        sys.install_doc(
            server,
            "feed",
            Tree::parse("<feed><item>v0</item></feed>").unwrap(),
        )
        .unwrap();
        sys.register_declarative_service(server, "items", r#"doc("feed")/item"#)
            .unwrap();
        sys.install_doc(
            client,
            "inbox",
            Tree::parse(
                r#"<inbox>
                     <sc><peer>p1</peer><service>items</service></sc>
                     <sc><peer>p1</peer><service>later</service></sc>
                   </inbox>"#,
            )
            .unwrap(),
        )
        .unwrap();
        // The second call names a service that does not exist yet: the
        // first one's subscription must not survive the error.
        let err = sys.activate_document(client, &"inbox".into()).unwrap_err();
        assert!(matches!(err, CoreError::NoSuchService { .. }), "{err:?}");
        assert_eq!(sys.subscriptions().len(), 0, "activation is all or nothing");
        assert_eq!(
            sys.feed(server, "feed", Tree::parse("<item>v1</item>").unwrap())
                .unwrap(),
            0,
            "nothing is left registered in the matching index"
        );
        // Fix the document's environment and retry: two subscriptions,
        // every answer delivered once.
        sys.register_declarative_service(server, "later", r#"doc("feed")/none"#)
            .unwrap();
        let ids = sys.activate_document(client, &"inbox".into()).unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(sys.subscriptions().len(), 2);
        let inbox = sys.peer(client).docs.get(&"inbox".into()).unwrap().tree();
        assert_eq!(inbox.serialize().matches("<item>v0</item>").count(), 1);
        assert_eq!(
            sys.feed(server, "feed", Tree::parse("<item>v2</item>").unwrap())
                .unwrap(),
            1,
            "one live subscription matches, once"
        );
    }

    #[test]
    fn call_id_agrees_across_trace_wire_and_subscription() {
        // Replay the trace: the `ServiceCall` correlation id must be the
        // subscription id (which is also the wire frame's `call_id` — all
        // three are assigned from the same counter draw).
        let mut sys = AxmlSystem::new();
        let client = sys.add_peer("client");
        let server = sys.add_peer("server");
        sys.net_mut().set_link(client, server, LinkCost::wan());
        sys.install_doc(server, "feed", Tree::parse("<feed/>").unwrap())
            .unwrap();
        sys.register_declarative_service(server, "items", r#"doc("feed")/item"#)
            .unwrap();
        sys.install_doc(
            client,
            "inbox",
            Tree::parse(
                r#"<inbox>
                     <sc><peer>p1</peer><service>items</service></sc>
                     <sc><peer>p1</peer><service>items</service></sc>
                   </inbox>"#,
            )
            .unwrap(),
        )
        .unwrap();
        let sink = axml_obs::VecSink::new();
        sys.set_trace_sink(Box::new(sink.clone()));
        let ids = sys.activate_document(client, &"inbox".into()).unwrap();
        assert_eq!(ids.len(), 2);
        let traced: Vec<u64> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::ServiceCall { call_id, .. } => Some(call_id),
                _ => None,
            })
            .collect();
        assert_eq!(traced, ids, "trace call ids are the subscription ids");
        let live: Vec<u64> = sys.subscriptions().map(|s| s.id).collect();
        assert_eq!(live, ids);
    }
}

#[cfg(test)]
mod matcher_tests {
    use super::*;
    use axml_net::link::LinkCost;

    /// Two clients watch disjoint topics of one board.
    fn board_system() -> (AxmlSystem, PeerId, PeerId) {
        let mut sys = AxmlSystem::new();
        let client = sys.add_peer("client");
        let server = sys.add_peer("server");
        sys.net_mut().set_link(client, server, LinkCost::lan());
        sys.install_doc(server, "board", Tree::parse("<board/>").unwrap())
            .unwrap();
        for t in ["db", "ai"] {
            sys.register_declarative_service(
                server,
                format!("watch-{t}"),
                &format!(r#"for $i in doc("board")/item where $i/@topic = "{t}" return {{$i}}"#),
            )
            .unwrap();
        }
        sys.install_doc(
            client,
            "inbox",
            Tree::parse(
                r#"<inbox>
                     <sc><peer>p1</peer><service>watch-db</service></sc>
                     <sc><peer>p1</peer><service>watch-ai</service></sc>
                   </inbox>"#,
            )
            .unwrap(),
        )
        .unwrap();
        (sys, client, server)
    }

    #[test]
    fn shared_matcher_skips_off_topic_subscriptions() {
        let (mut sys, client, server) = board_system();
        sys.activate_document(client, &"inbox".into()).unwrap();
        sys.reset_stats();
        let delivered = sys
            .feed(
                server,
                "board",
                Tree::parse(r#"<item topic="db">v1</item>"#).unwrap(),
            )
            .unwrap();
        assert_eq!(delivered, 1);
        let m = sys.metrics();
        assert_eq!(m.matcher_probes, 2, "both subscriptions probed");
        assert_eq!(m.matcher_hits, 1, "only the db watcher pumps");
        assert_eq!(m.matcher_skips, 1, "the ai watcher never re-evaluates");
        assert!(m.matcher_consistent());
        let inbox = sys.peer(client).docs.get(&"inbox".into()).unwrap().tree();
        assert!(inbox.serialize().contains("v1"));
    }

    #[test]
    fn naive_mode_delivers_identically_without_probing() {
        let (mut shared, sc, ss) = board_system();
        let (mut naive, nc, ns) = board_system();
        naive.set_matcher_mode(MatcherMode::Naive);
        for sys_at in [(&mut shared, sc), (&mut naive, nc)] {
            sys_at
                .0
                .activate_document(sys_at.1, &"inbox".into())
                .unwrap();
        }
        for (sys, server) in [(&mut shared, ss), (&mut naive, ns)] {
            for (topic, text) in [("db", "x"), ("ai", "y"), ("db", "z")] {
                sys.feed(
                    server,
                    "board",
                    Tree::parse(&format!(r#"<item topic="{topic}">{text}</item>"#)).unwrap(),
                )
                .unwrap();
            }
        }
        let a = shared.peer(sc).docs.get(&"inbox".into()).unwrap().tree();
        let b = naive.peer(nc).docs.get(&"inbox".into()).unwrap().tree();
        assert_eq!(
            a.serialize(),
            b.serialize(),
            "deliveries are bit-identical across modes"
        );
        assert!(shared.metrics().matcher_skips > 0);
        assert_eq!(naive.metrics().matcher_probes, 0, "naive mode never probes");
    }

    /// `echo` forwards into the very document it reads, so the watchers
    /// pumped after it in the same feed see more than the fed child:
    /// `all` would be hit anyway, `saw` only reads what `echo` leaves.
    fn echo_run(mode: MatcherMode) -> (Vec<usize>, String) {
        let mut sys = AxmlSystem::new();
        let client = sys.add_peer("client");
        let server = sys.add_peer("server");
        sys.set_matcher_mode(mode);
        sys.install_doc(server, "board", Tree::parse("<board/>").unwrap())
            .unwrap();
        for (name, src) in [
            (
                "echo",
                r#"for $i in doc("board")/item return <echo>{$i/text()}</echo>"#,
            ),
            (
                "all",
                r#"for $i in doc("board")/* return <got>{$i/text()}</got>"#,
            ),
            (
                "saw",
                r#"for $e in doc("board")/echo return <saw>{$e/text()}</saw>"#,
            ),
        ] {
            sys.register_declarative_service(server, name, src).unwrap();
        }
        let root = sys
            .peer(server)
            .doc(&"board".into(), server)
            .unwrap()
            .root();
        let inbox = format!(
            "<inbox><sc><peer>p1</peer><service>echo</service><forw>board#{}@p1</forw></sc>\
             <sc><peer>p1</peer><service>all</service></sc>\
             <sc><peer>p1</peer><service>saw</service></sc></inbox>",
            root.index()
        );
        sys.install_doc(client, "inbox", Tree::parse(&inbox).unwrap())
            .unwrap();
        sys.activate_document(client, &"inbox".into()).unwrap();
        let counts = ["a", "b", "a"]
            .map(|v| {
                let item = Tree::parse(&format!("<item>{v}</item>")).unwrap();
                sys.feed(server, "board", item).unwrap()
            })
            .to_vec();
        assert!(sys.metrics().matcher_consistent());
        let inbox = sys.peer(client).doc(&"inbox".into(), client).unwrap();
        (counts, inbox.serialize())
    }

    #[test]
    fn delivery_into_the_fed_document_reaches_the_later_pumps() {
        let naive = echo_run(MatcherMode::Naive);
        assert_eq!(naive.0, [4, 4, 4], "echo, item + echo got, echo saw");
        assert_eq!(echo_run(MatcherMode::Shared), naive);
    }

    /// A subscription evaluates the query it registered: what the index
    /// probes, what the picker judged and what a pump runs cannot come
    /// apart when the service is redefined under it. (a) the probe would
    /// skip what the new query selects; (b) the picker's verdict on the
    /// old query would put the new one on the delta arm.
    #[test]
    fn a_service_redefined_under_a_live_subscription_splits_no_modes() {
        let redefine_and_feed = |mode, service: &str, to: &str, items: [(&str, &str); 2]| {
            let (mut sys, client, server) = board_system();
            sys.set_matcher_mode(mode);
            sys.activate_document(client, &"inbox".into()).unwrap();
            sys.register_declarative_service(server, service, to)
                .unwrap();
            let counts = items.map(|(topic, text)| {
                let item = format!(r#"<item topic="{topic}">{text}</item>"#);
                sys.feed(server, "board", Tree::parse(&item).unwrap())
                    .unwrap()
            });
            let inbox = sys.peer(client).doc(&"inbox".into(), client).unwrap();
            (counts, inbox.serialize())
        };
        let select_ai = r#"for $i in doc("board")/item where $i/@topic = "ai" return {$i}"#;
        let wrap_all =
            r#"let $all := doc("board")/item where exists($all) return <all>{$all}</all>"#;
        for (service, to) in [("watch-db", select_ai), ("watch-ai", wrap_all)] {
            let items = [("ai", "a"), ("ai", "b")];
            let shared = redefine_and_feed(MatcherMode::Shared, service, to, items);
            let naive = redefine_and_feed(MatcherMode::Naive, service, to, items);
            assert_eq!(shared, naive, "{service} redefined");
            assert_eq!(shared.0, [1, 1], "the watchers activated keep their query");
        }
    }

    #[test]
    fn unsubscribe_unregisters_from_the_index() {
        let (mut sys, client, server) = board_system();
        let ids = sys.activate_document(client, &"inbox".into()).unwrap();
        sys.unsubscribe(ids[0]);
        sys.reset_stats();
        sys.feed(
            server,
            "board",
            Tree::parse(r#"<item topic="db">v1</item>"#).unwrap(),
        )
        .unwrap();
        // Only the surviving subscription is probed.
        assert_eq!(sys.metrics().matcher_probes, 1);
    }
}

#[cfg(test)]
mod call_tests {
    use super::*;

    const WATCH: &str = r#"for $i in doc("board")/item[@topic = $0/text()] return {$i}"#;
    const QUOTE: &str =
        r#"for $i in doc("board")/item[@topic = $0/text()] return <q>{$0}{$i/text()}</q>"#;

    /// A server's `board` with one `db` item and a `watch` service taking
    /// the topic as its parameter; `inboxes` client documents, the `k`-th
    /// calling `watch` with `params[k]` (the content of its `<param1>`).
    fn watchers(mode: MatcherMode, params: &[&str]) -> (AxmlSystem, PeerId, PeerId) {
        callers(mode, "watch", params)
    }

    /// The same, calling `service`; `quote` answers like `watch`, each
    /// item wrapped together with the parameter as it was written.
    fn callers(mode: MatcherMode, service: &str, params: &[&str]) -> (AxmlSystem, PeerId, PeerId) {
        let mut b = AxmlSystem::builder()
            .peers(["client", "server"])
            .doc(
                "server",
                "board",
                r#"<board><item topic="db">v0</item></board>"#,
            )
            .doc("server", "log", "<log/>")
            .service("server", "watch", WATCH)
            .service("server", "quote", QUOTE)
            .service("server", "all", r#"doc("board")/item"#);
        for (k, p) in params.iter().enumerate() {
            let sc =
                format!("<sc><peer>p1</peer><service>{service}</service><param1>{p}</param1></sc>");
            b = b.doc(
                "client",
                format!("inbox{k}"),
                format!("<in>{sc}</in>").as_str(),
            );
        }
        let mut sys = b.build().unwrap();
        sys.set_matcher_mode(mode);
        let (client, server) = (PeerId(0), PeerId(1));
        for k in 0..params.len() {
            sys.activate_document(client, &format!("inbox{k}").into())
                .unwrap();
        }
        (sys, client, server)
    }

    fn item(topic: &str, text: &str) -> Tree {
        Tree::parse(&format!(r#"<item topic="{topic}">{text}</item>"#)).unwrap()
    }

    fn inbox(sys: &AxmlSystem, client: PeerId, k: usize) -> String {
        let name = format!("inbox{k}");
        sys.peer(client)
            .doc(&name.as_str().into(), client)
            .unwrap()
            .serialize()
    }

    fn board_watch(sys: &AxmlSystem, server: PeerId) -> &Watch {
        &sys.subs.watches[&(server, "board".into())]
    }

    const DB: &str = "<t>db</t>";

    #[test]
    fn one_evaluation_per_call_however_many_subscribe() {
        let (mut sys, client, server) = watchers(MatcherMode::Shared, &[DB; 5]);
        assert_eq!(sys.subs.evals, (1, 0), "five activations, one scan");
        for (n, text) in ["v1", "v2", "v3"].into_iter().enumerate() {
            assert_eq!(sys.feed(server, "board", item("db", text)).unwrap(), 5);
            assert_eq!(sys.subs.evals, (1, n + 1), "one delta evaluation a feed");
        }
        sys.feed(server, "board", Tree::new("note")).unwrap();
        assert_eq!(
            sys.subs.evals,
            (1, 3),
            "a feed the probe skips evaluates nothing"
        );
        // A subscription joining the live call scans nothing, and is sent
        // what the others were, in one batch.
        let late = format!(
            "<in><sc><peer>p1</peer><service>watch</service><param1>{DB}</param1></sc></in>"
        );
        sys.install_doc(client, "inbox5", Tree::parse(&late).unwrap())
            .unwrap();
        sys.activate_document(client, &"inbox5".into()).unwrap();
        assert_eq!(sys.subs.evals, (1, 3));
        assert_eq!(inbox(&sys, client, 5), inbox(&sys, client, 0));
        assert!(inbox(&sys, client, 5).ends_with("v2</item><item topic=\"db\">v3</item></in>"));
        // The reference evaluates every subscription itself, every time.
        let (mut naive, _, server) = watchers(MatcherMode::Naive, &[DB; 5]);
        assert_eq!(naive.subs.evals, (5, 0));
        naive.feed(server, "board", item("db", "v1")).unwrap();
        assert_eq!(naive.subs.evals, (10, 0));
    }

    #[test]
    fn a_feed_digests_each_fresh_result_once_per_call() {
        let k = 5;
        let (mut sys, client, server) = watchers(MatcherMode::Shared, &[DB; 5]);
        assert_eq!(sys.subs.walks, 1, "five activations, one answer of one");
        for (n, text) in ["v1", "v2", "v3"].into_iter().enumerate() {
            let walks = sys.subs.walks;
            assert_eq!(sys.feed(server, "board", item("db", text)).unwrap(), k);
            assert_eq!(sys.subs.evals, (1, n + 1));
            assert_eq!(
                sys.subs.walks,
                walks + 1,
                "one fresh result, one walk for {k} members"
            );
        }
        // A subscription joining the live call admits the stored answer by
        // the digests stored beside it.
        let late = format!(
            "<in><sc><peer>p1</peer><service>watch</service><param1>{DB}</param1></sc></in>"
        );
        sys.install_doc(client, "late", Tree::parse(&late).unwrap())
            .unwrap();
        let walks = sys.subs.walks;
        sys.activate_document(client, &"late".into()).unwrap();
        assert_eq!(sys.subs.walks, walks, "four results, none walked");
        assert_eq!(sys.subscriptions().last().unwrap().delivered, 4);
        // The reference admits the whole answer, member by member.
        let (mut naive, _, server) = watchers(MatcherMode::Naive, &[DB; 5]);
        let walks = naive.subs.walks;
        naive.feed(server, "board", item("db", "v1")).unwrap();
        assert_eq!(naive.subs.walks, walks + 2 * k, "v0 and v1, per member");
    }

    #[test]
    fn subscriptions_are_listed_in_activation_order() {
        let (mut sys, client, _) = watchers(MatcherMode::Shared, &[DB, DB, "<t>ai</t>", DB]);
        let ids: Vec<u64> = sys.subscriptions().map(|s| s.id).collect();
        assert!(sys.unsubscribe(ids[1]));
        let late = format!(
            "<in><sc><peer>p1</peer><service>watch</service><param1>{DB}</param1></sc></in>"
        );
        sys.install_doc(client, "late", Tree::parse(&late).unwrap())
            .unwrap();
        let new = sys.activate_document(client, &"late".into()).unwrap();
        let listed: Vec<u64> = sys.subscriptions().map(|s| s.id).collect();
        assert_eq!(listed, [ids[0], ids[2], ids[3], new[0]]);
        assert!(listed.windows(2).all(|w| w[0] < w[1]), "{listed:?}");
    }

    #[test]
    fn a_stored_answer_is_a_copy_never_a_view_of_the_document() {
        let (mut sys, _, server) = watchers(MatcherMode::Shared, &[DB, DB, "<t>ai</t>"]);
        let check = |sys: &AxmlSystem, stored: usize| {
            let board = sys.peer(server).doc(&"board".into(), server).unwrap();
            let watch = board_watch(sys, server);
            let answers: Vec<_> = watch
                .calls
                .values()
                .filter_map(|c| c.answer.as_ref())
                .collect();
            assert_eq!(answers.len(), stored);
            assert!(answers.iter().all(|a| !a.shares_arena_with(board)));
            assert_eq!(
                watch.answers_at,
                sys.peer(server)
                    .docs
                    .get(&"board".into())
                    .map(Document::stamp)
            );
        };
        check(&sys, 2);
        for text in ["v1", "v2"] {
            sys.feed(server, "board", item("db", text)).unwrap();
            check(&sys, 2);
        }
        // An edit no feed made: the answers are of a stamp gone by, and
        // the next feed's full evaluations replace them.
        let doc = sys
            .peer_mut(server)
            .docs
            .require_mut(&"board".into())
            .unwrap();
        let root = doc.tree().root();
        doc.tree_mut().add_element(root, "note");
        let scans = sys.subs.evals.0;
        assert_eq!(sys.feed(server, "board", item("ai", "w")).unwrap(), 1);
        assert_eq!(
            sys.subs.evals.0,
            scans + 2,
            "once per call, not per watcher"
        );
        check(&sys, 2);
    }

    #[test]
    fn a_call_dies_with_its_last_subscription() {
        let (mut sys, _, server) = watchers(MatcherMode::Shared, &[DB, DB, "<t>ai</t>"]);
        let ids: Vec<u64> = sys.subscriptions().map(|s| s.id).collect();
        let members = |sys: &AxmlSystem| {
            let mut m: Vec<usize> = board_watch(sys, server)
                .calls
                .values()
                .map(|c| c.members)
                .collect();
            m.sort();
            m
        };
        assert_eq!(members(&sys), [1, 2]);
        sys.unsubscribe(ids[0]);
        assert_eq!(members(&sys), [1, 1]);
        sys.unsubscribe(ids[1]);
        assert_eq!(members(&sys), [1], "the db call went with its last member");
        sys.unsubscribe(ids[2]);
        assert!(
            sys.subs.watches.is_empty(),
            "and the watch with its last call"
        );
    }

    #[test]
    fn parameters_share_a_call_only_as_written() {
        let (two, swapped) = ("<t>db<x/></t>", "<t><x/>db</t>");
        let spellings = [two, two, swapped, "<t>db<y/></t>"];
        let run = |mode| {
            let (mut sys, client, server) = callers(mode, "quote", &spellings);
            sys.feed(server, "board", item("db", "v1")).unwrap();
            (sys, client, server)
        };
        let (sys, client, server) = run(MatcherMode::Shared);
        // Each is sent its own spelling, as the reference sends it.
        let (naive, ..) = run(MatcherMode::Naive);
        for k in 0..spellings.len() {
            assert_eq!(inbox(&sys, client, k), inbox(&naive, client, k));
        }
        let quoted = format!("<q>{swapped}v1</q></in>");
        assert!(inbox(&sys, client, 2).ends_with(&quoted));
        let calls: Vec<_> = sys.subscriptions().map(|s| s.call.clone()).collect();
        assert_eq!(calls[0], calls[1], "equal as written: one call");
        assert!(calls[0].is_some() && calls[3].is_some() && calls[0] != calls[3]);
        assert_eq!(
            calls[2], None,
            "equal up to sibling order: evaluates by itself"
        );
        assert_eq!(board_watch(&sys, server).calls.len(), 2);
        assert_eq!(sys.subs.evals, (3, 3));
    }

    /// Two calls hit by one feed, the first member of the first failing
    /// its delivery: the second call's stored answer never got the child.
    #[test]
    fn a_failed_feed_leaves_no_answer_behind() {
        let run = |mode| {
            let (mut sys, client, server) = watchers(mode, &[DB]);
            let log_root = sys.peer(server).doc(&"log".into(), server).unwrap().root();
            let calls = format!(
                "<in><sc><peer>p1</peer><service>all</service><forw>log#{}@p1</forw></sc>\
                 <sc><peer>p1</peer><service>watch</service><param1><t>ai</t></param1></sc></in>",
                log_root.index()
            );
            sys.install_doc(client, "inbox1", Tree::parse(&calls).unwrap())
                .unwrap();
            sys.activate_document(client, &"inbox1".into()).unwrap();
            let log = sys.peer_mut(server).docs.remove(&"log".into()).unwrap();
            // `watch(db)` (the oldest) delivers, `all` fails, `watch(ai)`
            // is never pumped.
            sys.feed(server, "board", item("ai", "lost?")).unwrap_err();
            sys.peer_mut(server).docs.insert(log).unwrap();
            let late = "<in><sc><peer>p1</peer><service>watch</service><param1><t>ai</t></param1></sc></in>";
            sys.install_doc(client, "inbox2", Tree::parse(late).unwrap())
                .unwrap();
            sys.activate_document(client, &"inbox2".into()).unwrap();
            (
                inbox(&sys, client, 2),
                sys.subs.watches[&(server, "board".into())].answers_at,
            )
        };
        let (shared, answers_at) = run(MatcherMode::Shared);
        assert!(shared.contains("lost?"), "{shared}");
        assert_eq!(shared, run(MatcherMode::Naive).0);
        assert!(
            answers_at.is_some(),
            "the late activation scanned and stored"
        );
    }
}
