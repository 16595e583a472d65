//! Shared subscription matching — a YFilter-style NFA over interned
//! labels that decides, for one document delta, *which* registered
//! queries could possibly gain new results.
//!
//! ## The problem
//!
//! A continuous system with `n` live subscriptions over one source
//! document pays `n` full query evaluations per [`feed`] — per-delta cost
//! linear in the subscription count. But most subscriptions are
//! *selective*: a delta tagged `topic="db"` cannot change the answer of a
//! query filtering on `topic="ai"`. The classic fix (YFilter, and the
//! deployed query networks in DXQ) is to compile every subscription's
//! tree patterns into **one** automaton, probe it once per delta, and
//! re-evaluate only the subscriptions it reports.
//!
//! [`feed`]: https://docs.rs/axml-core (AxmlSystem::feed)
//!
//! ## Soundness argument
//!
//! `feed` grafts the delta tree `T` as a **new child of the document
//! root** and never mutates existing nodes, and both axes of the plan
//! language ([`Axis::Child`], [`Axis::Descendant`]) navigate strictly
//! downward. Hence a query's result can change only if some doc-rooted
//! path yields *new* items, and every new item — together with its whole
//! match chain below the document root — lies inside `T`. It therefore
//! suffices to collect **every** doc-rooted [`PathPlan`] anywhere in the
//! plan (scan chains, `where` predicates, nested step predicates and
//! construction templates) as a pattern, and to report a subscription
//! iff one of its patterns matches somewhere in `T`. This also covers
//! negated and cardinality predicates: flipping them requires a doc-path
//! change, which is itself a pattern hit; results that merely *shrink*
//! deliver nothing fresh either way (delta semantics are append-only).
//!
//! ## What the index stores
//!
//! * **Structural states** — a trie of `(axis, node-test)` transitions
//!   shared across all registered patterns, state 0 being the document
//!   root. Only [`PlanTest::Label`]/[`PlanTest::Wildcard`] appear on
//!   transitions, so states are shared aggressively.
//! * **Accept entries** at each state — the subscription id, whether the
//!   pattern yields the matched node itself or a trailing atom step
//!   (`text()` / `@attr`), and a *residual* of self-contained predicates
//!   re-checked exactly on the delta.
//! * A **value index**: a residual conjunct of shape `@a = "literal"`
//!   (with a non-numeric literal — numeric comparison has coercing
//!   semantics) is lifted out of the residual into a hash lookup keyed by
//!   `(attribute, value)`, so ten thousand subscriptions differing only
//!   in a filter constant cost one hash probe, not ten thousand checks.
//!
//! ## Over-approximation contract (fallbacks)
//!
//! The probe may report a subscription whose answer does not actually
//! change (the engine's delta cache then suppresses the delivery), but it
//! must never stay silent when the answer *does* change. Shapes the index
//! cannot reason about precisely degrade monotonically toward "always
//! report":
//!
//! * a zero-step pattern (bare `doc("d")`) or a query whose analysis
//!   yields no usable pattern at all ⇒ the subscription joins the
//!   *always* set ([`Registration::Fallback`]);
//! * join predicates (referencing two variables), predicates on interior
//!   path steps, and non-self-contained residuals are dropped from the
//!   pattern — structure still gates the probe, the predicate is simply
//!   not used to narrow it;
//! * a mid-path atom test (`…/text()/…`) makes a path statically empty —
//!   it is registered as nothing at all, which is exact, not a fallback.
//!
//! Conversely `where` conjuncts over a single `for`-bound variable *are*
//! folded into that variable's scan pattern (rebased onto the matched
//! node), because a fresh tuple binding the variable to a new item must
//! satisfy them on that item — this is what makes the probe selective on
//! workloads like `for $i in doc("b")/item where $i/@topic = "t7"`.

use crate::eval::{any_satisfies, node_test_matches, numeral};
use crate::plan::{
    Axis, CmpOp, Op, OperandPlan, PathPlan, Plan, PlanStep, PlanTest, PredPlan, SourceRef,
    StartRef, VarId,
};
use crate::query::Query;
use crate::rewrite::rewrite_pred_to_context;
use axml_xml::ids::DocName;
use axml_xml::tree::{NodeId, Tree};
use axml_xml::Label;
use std::collections::{BTreeSet, HashMap};

/// Index of a structural state (0 = the document root).
type StateId = usize;

/// What a pattern yields at its accepting state.
#[derive(Debug, Clone, PartialEq, Eq)]
enum AcceptKind {
    /// The matched element itself.
    Node,
    /// A trailing atom-producing step applied to the matched element.
    Atom {
        /// Axis of the trailing step.
        axis: Axis,
        /// Its (terminal) test — `Text` or `Attr`.
        test: PlanTest,
    },
}

/// One registered pattern endpoint.
#[derive(Debug, Clone)]
struct AcceptEntry {
    sub: u64,
    kind: AcceptKind,
    /// Self-contained predicates re-checked exactly on the candidate.
    residual: Vec<PredPlan>,
}

/// Accept entries at one state, with the `@a = "v"` fast path hoisted
/// into a value-keyed map.
#[derive(Debug, Default)]
struct Accepts {
    eq_attr: HashMap<(Label, String), Vec<AcceptEntry>>,
    scan: Vec<AcceptEntry>,
}

/// One structural state.
#[derive(Debug, Default)]
struct State {
    /// Outgoing structural transitions (node tests only).
    trans: Vec<(Axis, PlanTest, StateId)>,
    accepts: Accepts,
}

/// How a subscription was registered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Registration {
    /// Structural patterns cover the query; the probe gates it.
    Indexed {
        /// Number of accept points installed.
        patterns: usize,
    },
    /// Uncoverable shape: the subscription is reported on every probe.
    Fallback,
}

/// The shared matching index for one source document.
///
/// Register each subscription's [`Query`] once; [`MatchIndex::probe`] a
/// delta tree to get the sorted set of subscription ids whose results may
/// have changed. See the module docs for the soundness contract.
#[derive(Debug)]
pub struct MatchIndex {
    doc: DocName,
    states: Vec<State>,
    /// Subscriptions reported on every probe (uncoverable shapes).
    always: BTreeSet<u64>,
    /// Every registered subscription id.
    registered: BTreeSet<u64>,
}

impl MatchIndex {
    /// An empty index for deltas of the named document.
    pub fn new(doc: DocName) -> Self {
        MatchIndex {
            doc,
            states: vec![State::default()],
            always: BTreeSet::new(),
            registered: BTreeSet::new(),
        }
    }

    /// The document this index covers.
    pub fn doc(&self) -> &DocName {
        &self.doc
    }

    /// Every registered subscription id, ascending — the subscriptions a
    /// delta of this document affects.
    pub fn registered(&self) -> &BTreeSet<u64> {
        &self.registered
    }

    /// Register a subscription's query. Re-registering an id replaces its
    /// previous patterns.
    pub fn register(&mut self, id: u64, query: &Query) -> Registration {
        self.remove(id);
        self.registered.insert(id);
        let mut added = 0usize;
        self.collect_plan(id, query.plan(), &mut added);
        if self.always.contains(&id) {
            return Registration::Fallback;
        }
        if added == 0 {
            // Safety net: the caller routed this query here because it
            // depends on `doc`, yet analysis installed nothing (e.g. the
            // only doc-rooted path reads a root attribute, which a graft
            // can never change). Degrade to always-report rather than
            // trust the edge-case analysis with a silent subscription.
            self.always.insert(id);
            return Registration::Fallback;
        }
        Registration::Indexed { patterns: added }
    }

    /// Drop a subscription's patterns. Returns whether it was registered.
    /// States are never garbage-collected (they are tiny and shared).
    pub fn remove(&mut self, id: u64) -> bool {
        let was = self.registered.remove(&id);
        self.always.remove(&id);
        if was {
            for st in &mut self.states {
                st.accepts.scan.retain(|e| e.sub != id);
                st.accepts.eq_attr.retain(|_, v| {
                    v.retain(|e| e.sub != id);
                    !v.is_empty()
                });
            }
        }
        was
    }

    /// Probe one delta tree (the tree `feed` grafts under the document
    /// root) and return every subscription whose results may change.
    pub fn probe(&self, delta: &Tree) -> BTreeSet<u64> {
        let mut hits: BTreeSet<u64> = self.always.iter().copied().collect();
        self.root_accepts(delta, &mut hits);
        // The delta root is a new child (hence descendant) of state 0.
        let reached = self.next_states(&[0], &[0], delta, delta.root());
        self.walk(delta, delta.root(), &reached, &[0], &mut hits);
        hits
    }

    // ---- compilation ---------------------------------------------------

    fn collect_plan(&mut self, id: u64, plan: &Plan, added: &mut usize) {
        let folds = fold_map(plan);
        let mut op = &plan.ops;
        loop {
            match op {
                Op::Unit => break,
                Op::ForEach { var, path, input } => {
                    let fold = folds.get(var).map_or(&[][..], |v| v.as_slice());
                    self.add_path(id, path, fold, added);
                    self.add_nested(id, path, added);
                    op = input;
                }
                Op::LetBind { path, input, .. } => {
                    // `let` binds the whole sequence — per-item folding
                    // would be unsound, so no residual from filters.
                    self.add_path(id, path, &[], added);
                    self.add_nested(id, path, added);
                    op = input;
                }
                Op::Filter { pred, input } => {
                    // Absolute doc paths used inside predicates are
                    // themselves change sources.
                    pred.visit_paths(&mut |p| self.add_path(id, p, &[], added));
                    op = input;
                }
            }
        }
        plan.template
            .visit_paths(&mut |p| self.add_path(id, p, &[], added));
    }

    /// Doc-rooted paths hiding inside `path`'s step predicates.
    fn add_nested(&mut self, id: u64, path: &PathPlan, added: &mut usize) {
        for s in &path.steps {
            for pred in &s.preds {
                pred.visit_paths(&mut |p| self.add_path(id, p, &[], added));
            }
        }
    }

    fn add_path(&mut self, id: u64, path: &PathPlan, fold: &[PredPlan], added: &mut usize) {
        match &path.start {
            StartRef::Source(SourceRef::Doc(d)) if *d == self.doc => {}
            _ => return,
        }
        let steps = &path.steps;
        if steps.is_empty() {
            // Bare `doc("d")`: every graft changes the result.
            self.always.insert(id);
            return;
        }
        let n = steps.len();
        // An interior atom-producing step yields atoms, and steps do not
        // apply to atoms: the path is statically empty. Exact, not a
        // fallback — no delta can ever produce items here.
        if steps[..n - 1].iter().any(|s| is_atom_test(&s.test)) {
            return;
        }
        let last = &steps[n - 1];
        match &last.test {
            PlanTest::Label(_) | PlanTest::Wildcard => {
                let state = self.intern_chain(steps);
                let mut residual = self_contained_preds(&last.preds);
                residual.extend(fold.iter().cloned());
                self.push_accept(
                    state,
                    AcceptEntry {
                        sub: id,
                        kind: AcceptKind::Node,
                        residual,
                    },
                    added,
                );
            }
            PlanTest::Text | PlanTest::Attr(_) => {
                let state = self.intern_chain(&steps[..n - 1]);
                let mut residual = self_contained_preds(&last.preds);
                residual.extend(fold.iter().cloned());
                // Accepts at the root state are tried at the delta's own
                // root, the new child of the document's.
                if state == 0 && last.axis == Axis::Child {
                    if matches!(last.test, PlanTest::Attr(_)) {
                        return; // a graft never touches the root's attributes
                    }
                    // The root's string value grows iff the delta carries
                    // text (residual dropped: atoms from the *concatenated*
                    // value are not per-delta).
                    residual.clear();
                }
                let kind = AcceptKind::Atom {
                    axis: last.axis,
                    test: last.test.clone(),
                };
                let entry = AcceptEntry {
                    sub: id,
                    kind,
                    residual,
                };
                self.push_accept(state, entry, added);
            }
        }
    }

    fn push_accept(&mut self, state: StateId, mut e: AcceptEntry, added: &mut usize) {
        *added += 1;
        if matches!(e.kind, AcceptKind::Node) {
            if let Some(key) = split_eq_attr(&mut e.residual) {
                self.states[state]
                    .accepts
                    .eq_attr
                    .entry(key)
                    .or_default()
                    .push(e);
                return;
            }
        }
        self.states[state].accepts.scan.push(e);
    }

    /// Intern the structural chain of `steps` (all node tests), sharing
    /// prefixes with every previously registered pattern.
    fn intern_chain(&mut self, steps: &[PlanStep]) -> StateId {
        let mut cur = 0;
        for s in steps {
            cur = self.intern_edge(cur, s.axis, &s.test);
        }
        cur
    }

    fn intern_edge(&mut self, from: StateId, axis: Axis, test: &PlanTest) -> StateId {
        debug_assert!(!is_atom_test(test), "transitions carry node tests only");
        if let Some(to) = self.states[from]
            .trans
            .iter()
            .find_map(|(a, t, s2)| (*a == axis && t == test).then_some(*s2))
        {
            return to;
        }
        let to = self.states.len();
        self.states.push(State::default());
        self.states[from].trans.push((axis, test.clone(), to));
        to
    }

    // ---- probing -------------------------------------------------------

    /// States reached *at* `node`: child transitions fire from the
    /// parent's reached states, descendant transitions from any ancestor
    /// (the `anc` set, which includes the virtual document root).
    fn next_states(
        &self,
        parent_reached: &[StateId],
        anc: &[StateId],
        t: &Tree,
        node: NodeId,
    ) -> Vec<StateId> {
        let mut out = Vec::new();
        for &s in parent_reached {
            for (axis, test, to) in &self.states[s].trans {
                if *axis == Axis::Child && node_test_matches(test, t, node) && !out.contains(to) {
                    out.push(*to);
                }
            }
        }
        for &s in anc {
            for (axis, test, to) in &self.states[s].trans {
                if *axis == Axis::Descendant
                    && node_test_matches(test, t, node)
                    && !out.contains(to)
                {
                    out.push(*to);
                }
            }
        }
        out
    }

    fn walk(
        &self,
        t: &Tree,
        node: NodeId,
        reached: &[StateId],
        anc: &[StateId],
        hits: &mut BTreeSet<u64>,
    ) {
        if hits.len() == self.registered.len() {
            return; // every registered subscription already reported
        }
        for &s in reached {
            self.state_accepts(s, t, node, hits);
        }
        let children = t.children(node);
        if children.is_empty() {
            return;
        }
        let mut anc2: Vec<StateId> = anc.to_vec();
        for &s in reached {
            if !anc2.contains(&s) {
                anc2.push(s);
            }
        }
        for &c in children {
            if !t.node(c).is_element() {
                continue;
            }
            let r2 = self.next_states(reached, &anc2, t, c);
            self.walk(t, c, &r2, &anc2, hits);
        }
    }

    fn state_accepts(&self, s: StateId, t: &Tree, node: NodeId, hits: &mut BTreeSet<u64>) {
        let acc = &self.states[s].accepts;
        if !acc.eq_attr.is_empty() {
            for (a, v) in t.attrs(node) {
                if let Some(entries) = acc.eq_attr.get(&(*a, v.clone())) {
                    for e in entries {
                        self.try_entry(e, t, node, hits);
                    }
                }
            }
        }
        for e in &acc.scan {
            self.try_entry(e, t, node, hits);
        }
    }

    fn try_entry(&self, e: &AcceptEntry, t: &Tree, node: NodeId, hits: &mut BTreeSet<u64>) {
        if hits.contains(&e.sub) {
            return;
        }
        let tail = match &e.kind {
            AcceptKind::Node => None,
            AcceptKind::Atom { axis, test } => Some((*axis, test)),
        };
        if residual_ok(&e.residual, t, node, tail) {
            hits.insert(e.sub);
        }
    }

    /// Accepts at state 0: patterns whose structural prefix is empty, so
    /// their atoms come from the (virtual) document root itself — what the
    /// trailing step yields at the delta's root is what the document gains.
    fn root_accepts(&self, delta: &Tree, hits: &mut BTreeSet<u64>) {
        let acc = &self.states[0].accepts;
        debug_assert!(
            acc.eq_attr.is_empty(),
            "node accepts never land on the root state"
        );
        for e in &acc.scan {
            self.try_entry(e, delta, delta.root(), hits);
        }
    }
}

// ---- pure helpers ------------------------------------------------------

fn is_atom_test(t: &PlanTest) -> bool {
    matches!(t, PlanTest::Text | PlanTest::Attr(_))
}

/// `where` conjuncts referencing exactly one `for`-bound variable, keyed
/// by that variable and rebased onto the context node.
fn fold_map(plan: &Plan) -> HashMap<VarId, Vec<PredPlan>> {
    let mut for_vars: BTreeSet<VarId> = BTreeSet::new();
    let mut filters: Vec<&PredPlan> = Vec::new();
    let mut op = &plan.ops;
    loop {
        match op {
            Op::Unit => break,
            Op::ForEach { var, input, .. } => {
                for_vars.insert(*var);
                op = input;
            }
            Op::LetBind { input, .. } => op = input,
            Op::Filter { pred, input } => {
                filters.push(pred);
                op = input;
            }
        }
    }
    let mut map: HashMap<VarId, Vec<PredPlan>> = HashMap::new();
    for pred in filters {
        let mut conjuncts = Vec::new();
        pred.conjuncts(&mut conjuncts);
        for c in conjuncts {
            if let Some((v, rebased)) = contextualize(c) {
                if for_vars.contains(&v) {
                    map.entry(v).or_default().push(rebased);
                }
            }
        }
    }
    map
}

/// If every outer-level path of `pred` starts at one variable `v` and
/// every nested path is context-relative, return `(v, pred)` with the
/// outer starts rewritten to [`StartRef::Context`]. Join conjuncts and
/// absolute references return `None` (they are dropped from residuals —
/// the structural pattern alone gates those, an over-approximation).
fn contextualize(pred: &PredPlan) -> Option<(VarId, PredPlan)> {
    let (mut var, mut ok) = (None, true);
    pred.paths(&mut |outer| {
        match outer.start {
            StartRef::Var(v) if var.is_none_or(|w| w == v) => var = Some(v),
            _ => ok = false,
        }
        let preds = outer.steps.iter().flat_map(|s| &s.preds);
        preds.for_each(|p| ok &= self_contained(p));
    });
    let v = var.filter(|_| ok)?;
    let mut rebased = pred.clone();
    rewrite_pred_to_context(&mut rebased, v);
    Some((v, rebased))
}

/// Is every path of `pred` (at any depth) context-relative? Such
/// predicates can be evaluated exactly on the delta alone.
fn self_contained(pred: &PredPlan) -> bool {
    let mut ok = true;
    pred.visit_paths(&mut |p| ok &= p.start == StartRef::Context);
    ok
}

fn self_contained_preds(preds: &[PredPlan]) -> Vec<PredPlan> {
    preds
        .iter()
        .filter(|p| self_contained(p))
        .cloned()
        .collect()
}

/// Lift the first `@a = "non-numeric literal"` conjunct out of the
/// residual as a value-index key. Numeric literals stay in the scan list
/// because comparison coerces (`"10" = "10.0"` holds numerically).
fn split_eq_attr(residual: &mut Vec<PredPlan>) -> Option<(Label, String)> {
    for i in 0..residual.len() {
        if let PredPlan::Cmp {
            lhs,
            op: CmpOp::Eq,
            rhs: OperandPlan::Literal(v),
        } = &residual[i]
        {
            if numeral(v).is_none()
                && lhs.start == StartRef::Context
                && lhs.steps.len() == 1
                && lhs.steps[0].axis == Axis::Child
                && lhs.steps[0].preds.is_empty()
            {
                if let PlanTest::Attr(a) = lhs.steps[0].test {
                    let key = (a, v.clone());
                    residual.remove(i);
                    return Some(key);
                }
            }
        }
    }
    None
}

/// Does some item that `tail` yields at `node` — the node itself without
/// one — pass the residual predicates? They are checked exactly, by the
/// evaluator, and are self-contained by construction, so evaluation
/// cannot error; if it somehow does, err toward reporting (sound
/// direction).
fn residual_ok(
    preds: &[PredPlan],
    t: &Tree,
    node: NodeId,
    tail: Option<(Axis, &PlanTest)>,
) -> bool {
    let r = any_satisfies((t, node), tail, preds);
    debug_assert!(r.is_ok(), "residual predicates are self-contained");
    r.unwrap_or(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(src: &str) -> Query {
        Query::parse("q", src).unwrap()
    }

    fn ix(doc: &str) -> MatchIndex {
        MatchIndex::new(doc.into())
    }

    fn hits(ix: &MatchIndex, delta: &str) -> Vec<u64> {
        ix.probe(&Tree::parse(delta).unwrap()).into_iter().collect()
    }

    #[test]
    fn selective_topics_share_structure() {
        let mut m = ix("news");
        for (id, topic) in [(1, "db"), (2, "ai"), (3, "os")] {
            let reg = m.register(
                id,
                &q(&format!(
                    r#"for $i in doc("news")/item where $i/@topic = "{topic}" return {{$i}}"#
                )),
            );
            assert!(matches!(reg, Registration::Indexed { .. }));
        }
        // one shared chain: root --child item--> s1
        assert_eq!(m.states.len(), 2);
        assert_eq!(hits(&m, r#"<item topic="db">x</item>"#), vec![1]);
        assert_eq!(hits(&m, r#"<item topic="ai">x</item>"#), vec![2]);
        assert!(hits(&m, r#"<item topic="sports">x</item>"#).is_empty());
        assert!(hits(&m, r#"<other topic="db"/>"#).is_empty());
    }

    #[test]
    fn descendant_axis_matches_at_depth() {
        let mut m = ix("d");
        m.register(7, &q(r#"for $p in doc("d")//pkg return {$p/size}"#));
        assert_eq!(hits(&m, "<pkg/>"), vec![7]);
        assert_eq!(hits(&m, "<batch><sub><pkg/></sub></batch>"), vec![7]);
        assert!(hits(&m, "<batch><sub/></batch>").is_empty());
    }

    #[test]
    fn atom_tails_gate_on_presence() {
        let mut m = ix("d");
        m.register(1, &q(r#"doc("d")//pkg/@name"#));
        m.register(2, &q(r#"doc("d")/entry/text()"#));
        assert_eq!(hits(&m, r#"<pkg name="vim"/>"#), vec![1]);
        assert!(hits(&m, "<pkg/>").is_empty(), "no attribute, no new atom");
        assert_eq!(hits(&m, "<entry>hello</entry>"), vec![2]);
        assert!(
            hits(&m, "<entry/>").is_empty(),
            "empty string value yields no atom"
        );
    }

    #[test]
    fn root_anchored_atoms() {
        let mut m = ix("d");
        m.register(1, &q(r#"doc("d")/text()"#));
        m.register(2, &q(r#"doc("d")//text()"#));
        m.register(3, &q(r#"doc("d")//@v"#));
        assert_eq!(hits(&m, "<x>t</x>"), vec![1, 2]);
        assert_eq!(hits(&m, "<x><y>deep</y></x>"), vec![1, 2]);
        assert_eq!(hits(&m, r#"<x v="1"/>"#), vec![3]);
        assert!(hits(&m, "<x/>").is_empty());
    }

    #[test]
    fn bare_doc_is_a_fallback() {
        let mut m = ix("d");
        let reg = m.register(9, &q(r#"doc("d")"#));
        assert_eq!(reg, Registration::Fallback);
        assert_eq!(hits(&m, "<anything/>"), vec![9]);
    }

    #[test]
    fn root_attr_only_query_degrades_to_fallback() {
        // doc("d")/@a can never change on a graft; the safety net keeps
        // the subscription reported rather than silently never probed.
        let mut m = ix("d");
        let reg = m.register(4, &q(r#"doc("d")/@a"#));
        assert_eq!(reg, Registration::Fallback);
        assert_eq!(hits(&m, "<x/>"), vec![4]);
    }

    #[test]
    fn mid_path_atom_test_is_statically_dead() {
        // text()/x yields nothing ever; with another live pattern the
        // dead one contributes no accepts.
        let mut m = ix("d");
        let reg = m.register(
            5,
            &q(r#"for $i in doc("d")/item for $j in doc("d")/t/text() return {$i}"#),
        );
        assert!(matches!(reg, Registration::Indexed { patterns: 2 }));
        assert_eq!(hits(&m, "<item/>"), vec![5]);
    }

    #[test]
    fn remove_unregisters() {
        let mut m = ix("d");
        m.register(1, &q(r#"for $i in doc("d")/item return {$i}"#));
        assert!(m.remove(1));
        assert!(!m.remove(1));
        assert!(hits(&m, "<item/>").is_empty());
        assert!(m.registered().is_empty());
    }

    #[test]
    fn reregistration_replaces() {
        let mut m = ix("d");
        m.register(1, &q(r#"for $i in doc("d")/a return {$i}"#));
        m.register(1, &q(r#"for $i in doc("d")/b return {$i}"#));
        assert!(hits(&m, "<a/>").is_empty());
        assert_eq!(hits(&m, "<b/>"), vec![1]);
    }

    #[test]
    fn numeric_literals_stay_in_the_scan_list() {
        // "10" = "10.0" holds under numeric coercion, so the value index
        // must not be used — but the residual still evaluates exactly.
        let mut m = ix("d");
        m.register(
            1,
            &q(r#"for $i in doc("d")/item where $i/@n = "10" return {$i}"#),
        );
        assert_eq!(hits(&m, r#"<item n="10.0"/>"#), vec![1]);
        assert_eq!(hits(&m, r#"<item n="10"/>"#), vec![1]);
        assert!(hits(&m, r#"<item n="11"/>"#).is_empty());
    }

    #[test]
    fn join_conjuncts_overapproximate() {
        let mut m = ix("d");
        m.register(
            1,
            &q(r#"for $a in doc("d")/x for $b in doc("d")/y where $a/@k = $b/@k return {$a}"#),
        );
        // the join itself is not evaluated at probe time: structure gates
        assert_eq!(hits(&m, r#"<x k="1"/>"#), vec![1]);
        assert_eq!(hits(&m, r#"<y k="2"/>"#), vec![1]);
        assert!(hits(&m, "<z/>").is_empty());
    }

    #[test]
    fn negation_and_count_fold_per_variable() {
        let mut m = ix("d");
        m.register(
            1,
            &q(r#"for $i in doc("d")/item where not(exists($i/hide)) return {$i}"#),
        );
        m.register(
            2,
            &q(r#"for $i in doc("d")/item where count($i/tag) >= 2 return {$i}"#),
        );
        assert_eq!(hits(&m, "<item/>"), vec![1]);
        assert_eq!(hits(&m, "<item><hide/></item>"), vec![] as Vec<u64>);
        assert_eq!(hits(&m, "<item><tag/><tag/></item>"), vec![1, 2]);
    }

    #[test]
    fn probe_miss_implies_unchanged_results() {
        // mini-oracle: on a miss, evaluation before and after the graft
        // must agree (the full property test lives in tests/).
        use std::collections::HashMap as Map;
        let queries = [
            r#"for $i in doc("d")/item where $i/@topic = "db" return {$i}"#,
            r#"for $p in doc("d")//pkg where $p/size/text() > 100 return {$p/@name}"#,
            r#"doc("d")/entry/text()"#,
            r#"for $i in doc("d")/item where not(exists($i/hide)) return <r>{$i}</r>"#,
        ];
        let deltas = [
            r#"<item topic="db">a</item>"#,
            r#"<item topic="ai">b</item>"#,
            r#"<pkg name="x"><size>500</size></pkg>"#,
            r#"<pkg name="y"><size>5</size></pkg>"#,
            "<entry>text</entry>",
            "<noise><pkg/></noise>",
            "<item><hide/></item>",
        ];
        let base = Tree::parse(r#"<d><item topic="db">seed</item></d>"#).unwrap();
        let mut m = ix("d");
        for (i, src) in queries.iter().enumerate() {
            m.register(i as u64, &q(src));
        }
        for delta_src in deltas {
            let delta = Tree::parse(delta_src).unwrap();
            let hit = m.probe(&delta);
            let mut grafted = base.clone();
            let root = grafted.root();
            grafted.graft(root, &delta, delta.root()).unwrap();
            let before: Map<DocName, Tree> = [("d".into(), base.clone())].into();
            let after: Map<DocName, Tree> = [("d".into(), grafted)].into();
            for (i, src) in queries.iter().enumerate() {
                if hit.contains(&(i as u64)) {
                    continue;
                }
                let qq = q(src);
                let a = qq.eval_with_docs(&[], &before).unwrap();
                let b = qq.eval_with_docs(&[], &after).unwrap();
                let ser = |ts: &[Tree]| ts.iter().map(|t| t.serialize()).collect::<Vec<_>>();
                assert_eq!(
                    ser(&a),
                    ser(&b),
                    "probe missed a change: query {src} delta {delta_src}"
                );
            }
        }
    }
}
