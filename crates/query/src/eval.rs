//! Batch evaluation of query plans over forests of input trees.
//!
//! Inputs are *forests* (`Vec<Tree>`) — one per query parameter — because
//! in AXML every query is continuous (§2.2) and its inputs are streams of
//! trees accumulated under a node; a batch evaluation sees the forest
//! accumulated so far. [`crate::delta`] builds the incremental evaluator
//! on top of this one.
//!
//! ## Semantics notes
//!
//! * `path/text()` yields the *string value* of the context node (one
//!   atom, omitted when empty); `path//text()` yields one atom per
//!   descendant text leaf.
//! * Comparisons are existential (any pair of atoms may satisfy them) and
//!   numeric when **both** sides are finite decimal numerals (`1e3 = 1000`
//!   holds), string-wise otherwise: `nan`, `inf` and `infinity`, which
//!   `f64::from_str` would also read, are names like any other.
//! * A top-level bare `{path}` template emits one result tree per matched
//!   item; atoms become `<text>…</text>` trees.
//!
//! ## How answers are built
//!
//! A bare `{path}` answers with O(1) views of the nodes it selects
//! ([`Tree::subtree`]); an atom or a top-level text answers with a
//! `<text>` tree of its own. An element template builds every answer of
//! one evaluation side by side in one arena ([`Builder`]), which is frozen
//! when the evaluation ends: each answer is then a handle onto it, in the
//! order the nested loop produced them, and the first sits at slot 0. An
//! atom read whole from one text node or one attribute value carries that
//! node's string, so an answer that splices it shares it; only a joined
//! or concatenated atom is a new string.
//!
//! ## Evaluation order
//!
//! The answer is the nested loop's — the very trees, in the very order,
//! that binding each `for`/`let` in turn and testing the whole `where`
//! innermost would give — at a cost proportional to what is scanned and
//! what is answered:
//!
//! * a `for`/`let` path that reads no variable at any depth (step
//!   predicates included) is a *closed scan*: it is walked the first time
//!   its loop level is reached and its items are reused for every later
//!   outer tuple. A level that is never reached never resolves its
//!   document, and a [`Delta`] narrows a closed scan as it does any other.
//! * each top-level conjunct of a `where` runs directly after the last
//!   `for`/`let` binding a variable it reads (before the first loop when
//!   it reads none), never later than where it stood, conjuncts that land
//!   together keeping their order. Only errors can tell: a conjunct that
//!   moved outwards is tested — and may raise, on an unresolved `doc()` —
//!   for outer tuples the nested loop dropped first or never reached, and
//!   a scan behind it is not resolved for the tuples it now drops.
//! * of those, a closed `for`'s *own* conjuncts — the ones whose paths, at
//!   any depth, start at its variable or a predicate's context, so that
//!   they read one item and nothing else — filter its scan as it is
//!   walked, once; the rest run per tuple, in their order. An own
//!   conjunct cannot raise, so this changes no answer; an item it rejects
//!   is never bound, so the level's other conjuncts never raise on it.
//! * with no [`Delta`] in force, the filtered items of a closed scan that
//!   starts at a `doc()`, or at a parameter holding one tree, are kept on
//!   that tree's arena ([`Tree::memo_scan`]) when they are elements read
//!   from the start node alone — every path in the scan's step predicates
//!   starts at their context — under the scan's steps and own conjuncts,
//!   compared by `==`. Another evaluation of an equal scan over the
//!   unchanged arena, of this plan or any other, reads them instead of
//!   walking; a change to the arena forgets them.
//! * a closed `for` with a conjunct `A = B`, `A` reading only the level's
//!   variable and `B` only outer ones, neither a source, is a *join*: on
//!   first reaching the level, `A` is walked per scanned item into a
//!   sorted index keyed by atom (a finite decimal numeral by its value,
//!   `-0` as `0`; anything else by its text), so keys are equal exactly
//!   when `=` holds. Each outer tuple looks up the keys of `B` and binds
//!   only the items found, once each, in scan order; each still runs
//!   every conjunct of the level, the join's included.
//! * `=`/`<`/…, `exists` and `contains` stop at their first witness, and
//!   a join never binds an item its equality rejects, so an error that
//!   only a witness after the first one, or an item a join pruned, would
//!   have raised does not surface.

use crate::error::{QueryError, QueryResult};
use crate::plan::{
    note_vars, AttrTplPlan, Axis, CmpOp, Op, OperandPlan, PathPlan, Plan, PlanStep, PlanTest,
    PredPlan, SourceRef, StartRef, TemplatePlan, VarId,
};
use axml_xml::ids::DocName;
use axml_xml::tree::{Builder, NodeId, NodeKind, ScanKey, Tree};
use axml_xml::Label;
use std::any::Any;
use std::borrow::Cow;
use std::cell::{Cell, OnceCell, RefCell};
use std::cmp::Ordering;
use std::ops::Deref;
use std::sync::Arc;

/// A forest: the trees accumulated so far on one input stream.
pub type Forest = Vec<Tree>;

/// Resolves `doc("name")` references during evaluation.
pub trait DocResolver {
    /// The tree of the named document, if known.
    fn resolve(&self, name: &DocName) -> Option<&Tree>;
}

/// A resolver that knows no documents.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoDocs;

impl DocResolver for NoDocs {
    fn resolve(&self, _name: &DocName) -> Option<&Tree> {
        None
    }
}

impl DocResolver for std::collections::HashMap<DocName, Tree> {
    fn resolve(&self, name: &DocName) -> Option<&Tree> {
        self.get(name)
    }
}

/// What a semi-naive evaluation reads in place of one whole source: the
/// part of it that just arrived. [`crate::delta::pick_strategy`] decides
/// when evaluating over that alone yields exactly the new results.
#[derive(Debug, Clone, Copy)]
pub enum Delta<'a> {
    /// Parameter `param` holds only the newly arrived trees.
    Param {
        /// The parameter.
        param: usize,
        /// The arrivals.
        trees: &'a [Tree],
    },
    /// Paths starting at document `doc` see, of its root's children, only
    /// `child` — the one just appended, inside the document's own tree.
    DocChild {
        /// The document.
        doc: &'a DocName,
        /// The appended child of its root.
        child: NodeId,
    },
}

/// Evaluation context: the input forests plus a document resolver, with an
/// optional [`Delta`] narrowing one source to its latest arrival.
pub struct Ctx<'a> {
    inputs: &'a [Forest],
    docs: &'a dyn DocResolver,
    delta: Option<Delta<'a>>,
}

impl<'a> Ctx<'a> {
    /// A plain context.
    pub fn new(inputs: &'a [Forest], docs: &'a dyn DocResolver) -> Self {
        Ctx {
            inputs,
            docs,
            delta: None,
        }
    }

    /// A context in which one source is narrowed to `delta`.
    pub fn with_delta(inputs: &'a [Forest], docs: &'a dyn DocResolver, delta: Delta<'a>) -> Self {
        Ctx {
            inputs,
            docs,
            delta: Some(delta),
        }
    }

    fn param(&self, i: usize) -> QueryResult<&'a [Tree]> {
        if let Some(Delta::Param { param, trees }) = self.delta {
            if param == i {
                return Ok(trees);
            }
        }
        self.inputs
            .get(i)
            .map(|f| f.as_slice())
            .ok_or(QueryError::ArityMismatch {
                expected: i + 1,
                got: self.inputs.len(),
            })
    }
}

/// One value flowing through a path: a node of some input tree, or an
/// atom.
#[derive(Debug, Clone)]
enum Item<'a> {
    Node(&'a Tree, NodeId),
    Atom(Str<'a>),
}

impl<'a> Item<'a> {
    /// XPath-style atomization: nodes become their string value.
    fn into_str(self) -> Str<'a> {
        match self {
            Item::Node(tree, node) => string_value(tree, node),
            Item::Atom(s) => s,
        }
    }

    /// The atom, to compare.
    fn into_atom(self) -> Cow<'a, str> {
        match self.into_str() {
            Str::Held(s) => Cow::Borrowed(s),
            Str::Built(s) => Cow::Owned(s),
        }
    }
}

/// An atom's string: the very string of the tree it was read in wherever
/// that tree holds it in one piece — one text node or one attribute
/// value — so an answer that splices it bumps a count; built otherwise.
#[derive(Debug, Clone)]
enum Str<'a> {
    Held(&'a Arc<str>),
    Built(String),
}

impl Str<'_> {
    /// The string, for a tree to hold.
    fn shared(self) -> Arc<str> {
        match self {
            Str::Held(s) => Arc::clone(s),
            Str::Built(s) => s.into(),
        }
    }
}

impl Deref for Str<'_> {
    type Target = str;

    fn deref(&self) -> &str {
        match self {
            Str::Held(s) => s,
            Str::Built(s) => s,
        }
    }
}

/// The concatenated text below `node`: the text node's own string while a
/// single chain of only children leads to one, built otherwise.
fn string_value(tree: &Tree, mut node: NodeId) -> Str<'_> {
    loop {
        match *tree.children(node) {
            [] => {
                return match tree.node(node).kind() {
                    NodeKind::Text(t) => Str::Held(t),
                    NodeKind::Element { .. } => Str::Built(String::new()),
                }
            }
            [only] => node = only,
            _ => return Str::Built(tree.text(node)),
        }
    }
}

fn attr(tree: &Tree, node: NodeId, name: Label) -> Option<&Arc<str>> {
    let found = tree.attrs(node).iter().find(|(n, _)| *n == name);
    found.map(|(_, v)| v)
}

/// Does `node` pass a node test? (Atom tests select no node.)
pub(crate) fn node_test_matches(test: &PlanTest, t: &Tree, node: NodeId) -> bool {
    match test {
        PlanTest::Label(l) => t.label(node) == Some(*l),
        PlanTest::Wildcard => t.node(node).is_element(),
        PlanTest::Text | PlanTest::Attr(_) => false,
    }
}

/// The number a comparison reads `s` as: a finite decimal numeral.
pub(crate) fn numeral(s: &str) -> Option<f64> {
    // Labels and names (`t17`, `pkg-00042`, `nan`) stop here, unparsed.
    let first = *s.as_bytes().first()?;
    if !(first.is_ascii_digit() || matches!(first, b'+' | b'-' | b'.')) {
        return None;
    }
    s.parse().ok().filter(|x: &f64| x.is_finite())
}

fn satisfied(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    }
}

/// An atom next to its [`numeral`].
type Atom<'s> = (&'s str, Option<f64>);

/// What an equality compares an atom by: two keys are equal exactly when
/// [`compare`] finds the atoms `=`.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Key<'a> {
    /// The bits of a numeral's value, `-0` read as `0`.
    Num(u64),
    Str(Cow<'a, str>),
}

impl<'a> Key<'a> {
    fn of(atom: Cow<'a, str>) -> Self {
        match numeral(&atom) {
            Some(0.0) => Key::Num(0), // `-0.0` too
            Some(x) => Key::Num(x.to_bits()),
            None => Key::Str(atom),
        }
    }
}

/// Compare two atoms: as numbers when both are numerals, else as strings.
fn compare(op: CmpOp, (a, x): Atom<'_>, (b, y): Atom<'_>) -> bool {
    let ord = match (x, y) {
        (Some(x), Some(y)) => x.partial_cmp(&y).expect("numerals are finite"),
        _ => a.cmp(b),
    };
    satisfied(op, ord)
}

/// The bindings in force, innermost first: one link per loop level (`for`
/// binds one item of its scan, `let` the whole list — either way the items
/// stay where the scan put them) and one per step predicate under test,
/// binding [`CONTEXT`] to its candidate. Each link lives in the stack
/// frame that made it.
struct Env<'s, 'a> {
    var: VarId,
    items: &'s [Item<'a>],
    outer: Scope<'s, 'a>,
}

/// What a path or predicate may read besides the sources.
type Scope<'s, 'a> = Option<&'s Env<'s, 'a>>;

/// The slot of the context item, which no `for`/`let` can bind.
const CONTEXT: VarId = VarId::MAX;

fn lookup<'s, 'a>(mut scope: Scope<'s, 'a>, v: VarId) -> QueryResult<&'s [Item<'a>]> {
    while let Some(e) = scope {
        if e.var == v {
            return Ok(e.items);
        }
        scope = e.outer;
    }
    Err(QueryError::Internal(if v == CONTEXT {
        "context path outside a predicate".into()
    } else {
        format!("variable slot {v} unbound at evaluation time")
    }))
}

/// One `for`/`let` of the plan in the order it runs.
struct Level<'p, 'a> {
    var: VarId,
    path: &'p PathPlan,
    /// `let`: bind the list, not each item in turn.
    seq: bool,
    /// For a closed scan, its items once the level has been reached.
    memo: Option<OnceCell<Vec<Item<'a>>>>,
    /// Whether the arena the closed scan starts in may keep its items:
    /// they are elements, read from the start node alone.
    kept: bool,
    /// For a closed `for`, the `where` conjuncts that read its variable
    /// and nothing else: they filter the scan.
    own: Vec<&'p PredPlan>,
    /// The `where` conjuncts that run as soon as this level is bound.
    then: Vec<&'p PredPlan>,
    /// For a closed `for`, an equality among `then` that picks its items.
    join: Option<Join<'p, 'a>>,
}

/// A conjunct `own = outer` of a closed `for` level (see the module docs).
struct Join<'p, 'a> {
    own: &'p PathPlan,
    outer: &'p PathPlan,
    /// The keys of `own` over the scan, each next to its item's position;
    /// sorted, once the level has been reached.
    index: OnceCell<Vec<(Key<'a>, usize)>>,
    /// The positions the current outer tuple picks — one buffer for all.
    hits: Cell<Vec<usize>>,
}

/// Receives a path's items one by one; answers whether to go on.
type Sink<'f, 'a> = dyn FnMut(Item<'a>) -> QueryResult<bool> + 'f;

/// Hand `items` to `f` until it answers `false`; whether it never did.
fn each<T>(
    items: impl IntoIterator<Item = T>,
    mut f: impl FnMut(T) -> QueryResult<bool>,
) -> QueryResult<bool> {
    for it in items {
        if !f(it)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// [`each`] over `kids` in preorder — and, when `deep`, over everything
/// below them, keeping the siblings still to come on a stack of its own.
fn visit(
    tree: &Tree,
    kids: &[NodeId],
    deep: bool,
    f: &mut dyn FnMut(NodeId) -> QueryResult<bool>,
) -> QueryResult<bool> {
    if !deep {
        return each(kids, |&c| f(c));
    }
    let (mut next, mut later) = (kids, Vec::new());
    loop {
        while let Some((&c, rest)) = next.split_first() {
            if !f(c)? {
                return Ok(false);
            }
            if !rest.is_empty() {
                later.push(rest);
            }
            next = tree.children(c);
        }
        match later.pop() {
            Some(up) => next = up,
            None => return Ok(true),
        }
    }
}

impl Plan {
    /// Evaluate the plan over the given forests.
    pub fn eval(&self, inputs: &[Forest], docs: &dyn DocResolver) -> QueryResult<Vec<Tree>> {
        if inputs.len() < self.arity {
            return Err(QueryError::ArityMismatch {
                expected: self.arity,
                got: inputs.len(),
            });
        }
        let ctx = Ctx::new(inputs, docs);
        self.eval_ctx(&ctx)
    }

    /// Evaluate under an explicit context (used by the delta evaluator).
    pub fn eval_ctx<'a>(&self, ctx: &Ctx<'a>) -> QueryResult<Vec<Tree>> {
        let (first, levels) = self.levels();
        let eval = Eval::new(ctx);
        let mut out = Answers::default();
        if eval.all_hold(first, None)? {
            eval.run(&levels, &self.template, None, &mut out)?;
        }
        Ok(out.into_trees())
    }

    /// The loop levels outermost first, each `where` conjunct placed after
    /// the last level binding a variable it reads; the conjuncts that read
    /// none come back on their own, to run before the first level.
    fn levels<'a>(&self) -> (Vec<&PredPlan>, Vec<Level<'_, 'a>>) {
        let mut chain: Vec<&Op> = std::iter::successors(Some(&self.ops), |op| op.input()).collect();
        chain.reverse();
        let (mut first, mut levels) = (Vec::new(), Vec::<Level>::new());
        for op in chain {
            let mut vars = Vec::new();
            match op {
                Op::Unit => {}
                Op::ForEach { var, path, .. } | Op::LetBind { var, path, .. } => {
                    path.visit_paths(&mut note_vars(&mut vars));
                    let last = path.steps.last().map(|s| &s.test);
                    let elements = matches!(last, Some(PlanTest::Label(_) | PlanTest::Wildcard));
                    let mut preds = path.steps.iter().flat_map(|s| &s.preds);
                    let local = preds.all(|p| reads_only(p, CONTEXT));
                    levels.push(Level {
                        var: *var,
                        path,
                        seq: matches!(op, Op::LetBind { .. }),
                        memo: vars.is_empty().then(OnceCell::new),
                        kept: vars.is_empty() && elements && local,
                        own: Vec::new(),
                        then: Vec::new(),
                        join: None,
                    });
                }
                Op::Filter { pred, .. } => {
                    let mut conjuncts = Vec::new();
                    pred.conjuncts(&mut conjuncts);
                    for c in conjuncts {
                        vars.clear();
                        c.visit_paths(&mut note_vars(&mut vars));
                        match levels.iter().rposition(|l| vars.contains(&l.var)) {
                            Some(binder) => levels[binder].then.push(c),
                            None => first.push(c),
                        }
                    }
                }
            }
        }
        for level in levels.iter_mut().filter(|l| l.memo.is_some() && !l.seq) {
            let var = level.var;
            (level.own, level.then) = level.then.iter().partition(|c| reads_only(c, var));
            level.join = level.then.iter().find_map(|c| join(c, var));
        }
        (first, levels)
    }
}

/// Whether each path of `c`, at any depth, starts at `var` or at a
/// context — with `var` [`CONTEXT`], at a context.
fn reads_only(c: &PredPlan, var: VarId) -> bool {
    let mut only = true;
    c.visit_paths(&mut |p| {
        only &= matches!(p.start, StartRef::Context) || p.start == StartRef::Var(var)
    });
    only
}

/// What a closed scan's items are kept on its arena under: the steps from
/// its start and the conjuncts that filter it.
struct Fragment<'p> {
    steps: &'p [PlanStep],
    own: &'p [&'p PredPlan],
}

impl ScanKey for Fragment<'_> {
    fn is(&self, kept: &(dyn Any + Send + Sync)) -> bool {
        let kept = kept.downcast_ref::<(Vec<PlanStep>, Vec<PredPlan>)>();
        kept.is_some_and(|(steps, own)| {
            *steps == self.steps && own.iter().eq(self.own.iter().copied())
        })
    }

    fn keep(&self) -> Box<dyn Any + Send + Sync> {
        let own: Vec<PredPlan> = self.own.iter().map(|&c| c.clone()).collect();
        Box::new((self.steps.to_vec(), own))
    }
}

/// The [`Join`] conjunct `c` makes for a closed `for` level binding `var`.
fn join<'p, 'a>(c: &'p PredPlan, var: VarId) -> Option<Join<'p, 'a>> {
    let PredPlan::Cmp {
        lhs,
        op: CmpOp::Eq,
        rhs: OperandPlan::Path(rhs),
    } = c
    else {
        return None;
    };
    // The variables a side reads, unless it reads a source.
    let reads = |p: &PathPlan| {
        let (mut vars, mut source) = (Vec::new(), false);
        p.visit_paths(&mut |q| match q.start {
            StartRef::Var(v) if !vars.contains(&v) => vars.push(v),
            StartRef::Source(_) => source = true,
            _ => {}
        });
        (!source).then_some(vars)
    };
    let is_own = |p| reads(p).is_some_and(|vars| vars == [var]);
    let is_outer = |p| reads(p).is_some_and(|vars| !vars.is_empty() && !vars.contains(&var));
    let sides = [(lhs, rhs), (rhs, lhs)];
    let (own, outer) = sides.into_iter().find(|&(a, b)| is_own(a) && is_outer(b))?;
    Some(Join {
        own,
        outer,
        index: OnceCell::new(),
        hits: Cell::default(),
    })
}

/// Does any item that `tail` yields at the node `at` — the node itself
/// when there is no such trailing step — satisfy all of `preds`? For the
/// matcher's residuals, which read nothing but their context.
pub(crate) fn any_satisfies(
    at: (&Tree, NodeId),
    tail: Option<(Axis, &PlanTest)>,
    preds: &[PredPlan],
) -> QueryResult<bool> {
    let ctx = Ctx::new(&[], &NoDocs);
    let eval = Eval::new(&ctx);
    let stop = &mut |_| Ok(false);
    let ran_out = match tail {
        None => eval.admit(Item::Node(at.0, at.1), preds, &[], None, stop)?,
        Some((axis, test)) => eval.step((axis, test, preds), &[], at, None, None, stop)?,
    };
    Ok(!ran_out)
}

/// One evaluation: the context, and what is worked out once per plan.
struct Eval<'p, 'a> {
    ctx: &'p Ctx<'a>,
    /// The plan's comparison literals (by address) met so far, each next
    /// to its [`numeral`].
    literals: RefCell<Vec<(&'p String, Option<f64>)>>,
}

impl<'p, 'a> Eval<'p, 'a> {
    fn new(ctx: &'p Ctx<'a>) -> Self {
        Eval {
            ctx,
            literals: RefCell::default(),
        }
    }

    /// Bind `levels` outermost first and emit one template instance per
    /// tuple that passes every conjunct on the way in.
    fn run(
        &self,
        levels: &[Level<'p, 'a>],
        template: &'p TemplatePlan,
        scope: Scope<'_, 'a>,
        out: &mut Answers,
    ) -> QueryResult<()> {
        let Some((level, rest)) = levels.split_first() else {
            return self.construct(template, scope, out);
        };
        let scanned;
        let items = match level.memo.as_ref().and_then(OnceCell::get) {
            Some(memo) => memo,
            None => {
                let list = self.scan(level, scope)?;
                match &level.memo {
                    Some(memo) => memo.get_or_init(|| list),
                    None => {
                        scanned = list;
                        &scanned
                    }
                }
            }
        };
        let mut bind = |items: &[Item<'a>]| -> QueryResult<()> {
            let env = Env {
                var: level.var,
                items,
                outer: scope,
            };
            if self.all_hold(level.then.iter().copied(), Some(&env))? {
                self.run(rest, template, Some(&env), out)?;
            }
            Ok(())
        };
        let Some(join) = &level.join else {
            return if level.seq {
                bind(items)
            } else {
                items.iter().map(std::slice::from_ref).try_for_each(bind)
            };
        };
        let mut hits = join.hits.take();
        let picked = self.probe(level.var, join, items, scope, &mut hits);
        let bind_hit = |&i: &usize| bind(std::slice::from_ref(&items[i]));
        let bound = picked.and_then(|()| hits.iter().try_for_each(bind_hit));
        join.hits.set(hits);
        bound
    }

    /// The items of `level`'s path that pass its own conjuncts, in scan
    /// order: read from the arena the scan starts in when it keeps them
    /// (see the module docs), else walked — and then kept, if it may.
    fn scan(&self, level: &Level<'p, 'a>, scope: Scope<'_, 'a>) -> QueryResult<Vec<Item<'a>>> {
        let walked = || {
            let mut list = Vec::new();
            self.walk(level.path, scope, &mut |it| {
                let env = Env {
                    var: level.var,
                    items: std::slice::from_ref(&it),
                    outer: None,
                };
                if self.all_hold(level.own.iter().copied(), Some(&env))? {
                    list.push(it);
                }
                Ok(true)
            })?;
            Ok(list)
        };
        let tree = match &level.path.start {
            _ if !level.kept || self.ctx.delta.is_some() => None,
            StartRef::Source(SourceRef::Doc(d)) => Some(self.doc(d)?),
            StartRef::Source(SourceRef::Param(i)) => match self.ctx.param(*i)? {
                [tree] => Some(tree),
                _ => None,
            },
            _ => None,
        };
        let Some(tree) = tree else {
            return walked();
        };
        let key = Fragment {
            steps: &level.path.steps,
            own: &level.own,
        };
        let mut fresh = None;
        let found = tree.memo_scan(&key, || {
            let list = walked()?;
            let node = |it: &Item| match it {
                Item::Node(_, node) => *node,
                Item::Atom(_) => unreachable!("a kept scan ends in an element step"),
            };
            let found = list.iter().map(node).collect();
            fresh = Some(list);
            Ok(found)
        })?;
        Ok(fresh.unwrap_or_else(|| found.iter().map(|&n| Item::Node(tree, n)).collect()))
    }

    /// The tree of the document `d`.
    fn doc(&self, d: &DocName) -> QueryResult<&'a Tree> {
        let tree = self.ctx.docs.resolve(d);
        tree.ok_or_else(|| QueryError::UnresolvedDoc(d.to_string()))
    }

    /// Into `hits`, ascending and once each, the positions of the `items`
    /// of the level binding `var` that share a key with the current outer
    /// tuple's `join.outer`; the index of `join.own` is built on first use.
    fn probe(
        &self,
        var: VarId,
        join: &Join<'p, 'a>,
        items: &[Item<'a>],
        scope: Scope<'_, 'a>,
        hits: &mut Vec<usize>,
    ) -> QueryResult<()> {
        let index = match join.index.get() {
            Some(index) => index,
            None => {
                let mut index = Vec::with_capacity(items.len());
                for (at, item) in items.iter().enumerate() {
                    let env = Env {
                        var,
                        items: std::slice::from_ref(item),
                        outer: None,
                    };
                    self.walk(join.own, Some(&env), &mut |it| {
                        index.push((Key::of(it.into_atom()), at));
                        Ok(true)
                    })?;
                }
                index.sort_unstable();
                join.index.get_or_init(|| index)
            }
        };
        hits.clear();
        self.walk(join.outer, scope, &mut |it| {
            let key = Key::of(it.into_atom());
            let from = index.partition_point(|(k, _)| *k < key);
            let found = index[from..].iter().take_while(|(k, _)| *k == key);
            hits.extend(found.map(|&(_, at)| at));
            Ok(true)
        })?;
        hits.sort_unstable();
        hits.dedup();
        Ok(())
    }

    /// Feed `f` the items of `path` in the order step-by-step
    /// materialisation would list them, until `f` answers `false`.
    /// Returns whether the walk ran to its end.
    fn walk(
        &self,
        path: &'p PathPlan,
        scope: Scope<'_, 'a>,
        f: &mut Sink<'_, 'a>,
    ) -> QueryResult<bool> {
        let steps = &path.steps[..];
        let bound = match &path.start {
            StartRef::Source(SourceRef::Param(i)) => {
                let roots = self.ctx.param(*i)?;
                return each(roots, |t| {
                    self.through(steps, (t, t.root()), None, scope, f)
                });
            }
            StartRef::Source(SourceRef::Doc(d)) => {
                let tree = self.doc(d)?;
                // Under `Delta::DocChild` the path yields what it yields
                // through `child` and no other child of the root. Both
                // axes only go down, so the first step is the only one
                // that looks at the root's children — and it must select
                // elements: the root's own text and attributes are not a
                // sum over its children, and the picker never narrows
                // such a path.
                let only = match self.ctx.delta {
                    Some(Delta::DocChild { doc, child }) if doc == d => Some(child),
                    _ => None,
                };
                let first = steps.first().map(|s| &s.test);
                if only.is_some() && !matches!(first, Some(PlanTest::Label(_) | PlanTest::Wildcard))
                {
                    return Err(QueryError::Internal(
                        "document delta under a path that does not start with an element step"
                            .into(),
                    ));
                }
                return self.through(steps, (tree, tree.root()), only, scope, f);
            }
            StartRef::Var(v) => lookup(scope, *v)?,
            StartRef::Context => lookup(scope, CONTEXT)?,
        };
        each(bound, |it| match it {
            Item::Node(tree, node) => self.through(steps, (*tree, *node), None, scope, f),
            Item::Atom(_) if steps.is_empty() => f(it.clone()),
            Item::Atom(_) => Ok(true), // steps do not apply to atoms
        })
    }

    /// The node `at` once no step is left, else [`Eval::step`].
    fn through(
        &self,
        steps: &'p [PlanStep],
        at: (&'a Tree, NodeId),
        only: Option<NodeId>,
        scope: Scope<'_, 'a>,
        f: &mut Sink<'_, 'a>,
    ) -> QueryResult<bool> {
        match steps.split_first() {
            None => f(Item::Node(at.0, at.1)),
            Some((s, rest)) => self.step((s.axis, &s.test, &s.preds), rest, at, only, scope, f),
        }
    }

    /// One step from `at`, depth-first: each candidate is [admitted]
    /// before the next is looked at. `only` stands in for the children of
    /// `at` when given.
    ///
    /// [admitted]: Eval::admit
    fn step(
        &self,
        (axis, test, preds): (Axis, &PlanTest, &'p [PredPlan]),
        rest: &'p [PlanStep],
        (tree, node): (&'a Tree, NodeId),
        only: Option<NodeId>,
        scope: Scope<'_, 'a>,
        f: &mut Sink<'_, 'a>,
    ) -> QueryResult<bool> {
        let only = only.as_ref().map(std::slice::from_ref);
        let kids = only.unwrap_or_else(|| tree.children(node));
        let deep = axis == Axis::Descendant;
        let mut admit = |it| self.admit(it, preds, rest, scope, f);
        match test {
            PlanTest::Label(_) | PlanTest::Wildcard => visit(tree, kids, deep, &mut |c| {
                Ok(!node_test_matches(test, tree, c) || admit(Item::Node(tree, c))?)
            }),
            PlanTest::Text if deep => visit(tree, kids, true, &mut |c| match tree.node(c).kind() {
                NodeKind::Text(t) => admit(Item::Atom(Str::Held(t))),
                NodeKind::Element { .. } => Ok(true),
            }),
            PlanTest::Text => match string_value(tree, node) {
                v if v.is_empty() => Ok(true),
                v => admit(Item::Atom(v)),
            },
            PlanTest::Attr(a) => {
                let mut own = |n| match attr(tree, n, *a) {
                    Some(v) => admit(Item::Atom(Str::Held(v))),
                    None => Ok(true),
                };
                Ok(own(node)? && (!deep || visit(tree, kids, true, &mut own)?))
            }
        }
    }

    /// A candidate that passes `preds` goes on through `rest`, and to `f`
    /// once past the last step.
    fn admit(
        &self,
        it: Item<'a>,
        preds: &'p [PredPlan],
        rest: &'p [PlanStep],
        scope: Scope<'_, 'a>,
        f: &mut Sink<'_, 'a>,
    ) -> QueryResult<bool> {
        let context = Env {
            var: CONTEXT,
            items: std::slice::from_ref(&it),
            outer: scope,
        };
        if !self.all_hold(preds, Some(&context))? {
            return Ok(true);
        }
        match it {
            Item::Node(tree, node) => self.through(rest, (tree, node), None, scope, f),
            atom if rest.is_empty() => f(atom),
            _ => Ok(true), // steps do not apply to atoms
        }
    }

    fn all_hold(
        &self,
        preds: impl IntoIterator<Item = &'p PredPlan>,
        scope: Scope<'_, 'a>,
    ) -> QueryResult<bool> {
        each(preds, |p| self.holds(p, scope))
    }

    fn holds(&self, pred: &'p PredPlan, scope: Scope<'_, 'a>) -> QueryResult<bool> {
        Ok(match pred {
            PredPlan::And(a, b) => self.holds(a, scope)? && self.holds(b, scope)?,
            PredPlan::Or(a, b) => self.holds(a, scope)? || self.holds(b, scope)?,
            PredPlan::Not(c) => !self.holds(c, scope)?,
            PredPlan::Cmp { lhs, op, rhs } => {
                // The right side is listed once, numerals read — in place
                // while it is a single atom — and the left is then walked
                // up to its first witness.
                let (mut one, mut more) = (None, Vec::new());
                match rhs {
                    OperandPlan::Literal(l) => one = Some((Cow::Borrowed(&l[..]), self.literal(l))),
                    OperandPlan::Path(p) => {
                        self.walk(p, scope, &mut |it| {
                            let b = it.into_atom();
                            let y = numeral(&b);
                            match one {
                                None => one = Some((b, y)),
                                Some(_) => more.push((b, y)),
                            }
                            Ok(true)
                        })?;
                    }
                }
                let right = || one.iter().chain(&more);
                let numeric = right().any(|(_, y)| y.is_some());
                !self.walk(lhs, scope, &mut |it| {
                    let a = it.into_atom();
                    let x = if numeric { numeral(&a) } else { None };
                    Ok(!right().any(|(b, y)| compare(*op, (&a[..], x), (&b[..], *y))))
                })?
            }
            PredPlan::Contains { path, needle } => !self.walk(path, scope, &mut |it| {
                Ok(!it.into_atom().contains(needle.as_str()))
            })?,
            PredPlan::Exists(p) => !self.walk(p, scope, &mut |_| Ok(false))?,
            PredPlan::CountCmp { path, op, n } => {
                let mut count = 0u64;
                self.walk(path, scope, &mut |_| {
                    count += 1;
                    Ok(true)
                })?;
                satisfied(*op, count.cmp(n))
            }
        })
    }

    /// The [`numeral`] of a literal of the plan, read at its first use.
    fn literal(&self, l: &'p String) -> Option<f64> {
        let mut seen = self.literals.borrow_mut();
        if let Some((_, n)) = seen.iter().find(|(k, _)| std::ptr::eq(*k, l)) {
            return *n;
        }
        let n = numeral(l);
        seen.push((l, n));
        n
    }

    /// Instantiate the template for one binding tuple.
    fn construct(
        &self,
        template: &'p TemplatePlan,
        scope: Scope<'_, 'a>,
        out: &mut Answers,
    ) -> QueryResult<()> {
        let text = |s: Arc<str>| {
            let mut t = Tree::new("text");
            let r = t.root();
            t.add_text(r, s);
            t
        };
        match template {
            // A bare top-level splice: one tree per item.
            TemplatePlan::Splice(path) => {
                self.walk(path, scope, &mut |it| {
                    out.handles.push(match it {
                        // Zero-copy: result trees are views into the input
                        // document's arena (copy-on-write if mutated later).
                        Item::Node(tree, node) => tree
                            .subtree(node)
                            .expect("path items reference valid nodes"),
                        Item::Atom(s) => text(s.shared()),
                    });
                    Ok(true)
                })?;
            }
            TemplatePlan::Text(s) => out.handles.push(text(Arc::clone(s))),
            TemplatePlan::Element { label, .. } => {
                let root = out.built.add_root(*label);
                self.fill_element(template, &mut out.built, root, scope)?;
            }
        }
        Ok(())
    }

    /// Fill `at` (already created with the element's label) from the template.
    fn fill_element(
        &self,
        template: &'p TemplatePlan,
        t: &mut Builder,
        at: NodeId,
        scope: Scope<'_, 'a>,
    ) -> QueryResult<()> {
        let TemplatePlan::Element {
            attrs, children, ..
        } = template
        else {
            return Err(QueryError::Internal("fill_element on non-element".into()));
        };
        // A literal shares the plan's string, an atom read whole shares
        // its tree's, and copied children share their strings: only a
        // joined atom is a new string.
        for (name, v) in attrs {
            let value: Arc<str> = match v {
                AttrTplPlan::Literal(s) => Arc::clone(s),
                AttrTplPlan::Splice(p) => {
                    // The atoms, space-joined: held while there is one.
                    let mut joined: Option<Str<'a>> = None;
                    self.walk(p, scope, &mut |it| {
                        let atom = it.into_str();
                        joined = Some(match joined.take() {
                            None => atom,
                            Some(Str::Built(mut j)) => {
                                j.push(' ');
                                j.push_str(&atom);
                                Str::Built(j)
                            }
                            Some(j) => Str::Built([&*j, " ", &*atom].concat()),
                        });
                        Ok(true)
                    })?;
                    joined.map_or_else(|| "".into(), Str::shared)
                }
            };
            t.set_attr(at, *name, value);
        }
        for c in children {
            match c {
                TemplatePlan::Text(s) => {
                    t.add_text(at, Arc::clone(s));
                }
                TemplatePlan::Element { label, .. } => {
                    let el = t.add_element(at, *label);
                    self.fill_element(c, t, el, scope)?;
                }
                TemplatePlan::Splice(p) => {
                    self.walk(p, scope, &mut |it| {
                        match it {
                            Item::Node(tree, node) => {
                                t.copy(at, tree, node);
                            }
                            Item::Atom(s) => {
                                t.add_text(at, s.shared());
                            }
                        }
                        Ok(true)
                    })?;
                }
            }
        }
        Ok(())
    }
}

/// One evaluation's answers so far: a template answers either with
/// handles — views of input nodes, atoms and text, each a tree of its
/// own — or, for an element template, with trees built side by side.
#[derive(Default)]
struct Answers {
    handles: Vec<Tree>,
    built: Builder,
}

impl Answers {
    /// The answers in the order they were made.
    fn into_trees(self) -> Vec<Tree> {
        if self.handles.is_empty() {
            self.built.finish()
        } else {
            self.handles
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_plan;

    fn run(src: &str, inputs: &[Forest]) -> Vec<String> {
        let plan = parse_plan(src, inputs.len()).unwrap();
        plan.eval(inputs, &NoDocs)
            .unwrap()
            .iter()
            .map(Tree::serialize)
            .collect()
    }

    fn catalog() -> Tree {
        Tree::parse(
            r#"<catalog>
                 <pkg name="vim"><version>9.1</version><size>4000</size></pkg>
                 <pkg name="gcc"><version>13</version><size>90000</size>
                   <deps><dep>glibc</dep><dep>binutils</dep></deps></pkg>
                 <pkg name="vi"><version>1.0</version><size>100</size></pkg>
               </catalog>"#,
        )
        .unwrap()
    }

    #[test]
    fn bare_path_copies_matches() {
        let out = run("$0//dep", &[vec![catalog()]]);
        assert_eq!(out, ["<dep>glibc</dep>", "<dep>binutils</dep>"]);
    }

    #[test]
    fn attribute_filter() {
        let out = run(
            r#"for $p in $0//pkg where $p/@name = "vim" return <hit>{$p/version}</hit>"#,
            &[vec![catalog()]],
        );
        assert_eq!(out, ["<hit><version>9.1</version></hit>"]);
    }

    #[test]
    fn numeric_comparison() {
        let out = run(
            r#"for $p in $0//pkg where $p/size/text() > 3000 return {$p/@name}"#,
            &[vec![catalog()]],
        );
        // atoms wrap as <text> trees
        assert_eq!(out, ["<text>vim</text>", "<text>gcc</text>"]);
    }

    #[test]
    fn string_comparison_fallback() {
        // "vi" < "vim" lexicographically
        let out = run(
            r#"for $p in $0//pkg where $p/@name < "vim" return {$p/@name}"#,
            &[vec![catalog()]],
        );
        assert_eq!(out, ["<text>gcc</text>", "<text>vi</text>"]);
    }

    #[test]
    fn contains_and_predicates_in_path() {
        let out = run(
            r#"for $p in $0//pkg[deps/dep = "glibc"] return {$p/@name}"#,
            &[vec![catalog()]],
        );
        assert_eq!(out, ["<text>gcc</text>"]);
        let out2 = run(
            r#"for $p in $0//pkg where contains($p/@name, "vi") return {$p/@name}"#,
            &[vec![catalog()]],
        );
        assert_eq!(out2, ["<text>vim</text>", "<text>vi</text>"]);
    }

    #[test]
    fn construction_with_attrs() {
        let out = run(
            r#"for $p in $0//pkg where exists($p/deps) return <needs name="{$p/@name}" n="fixed">{$p/deps/dep}</needs>"#,
            &[vec![catalog()]],
        );
        assert_eq!(
            out,
            [r#"<needs name="gcc" n="fixed"><dep>glibc</dep><dep>binutils</dep></needs>"#]
        );
    }

    #[test]
    fn join_across_inputs() {
        let prices =
            Tree::parse(r#"<prices><price pkg="vim">10</price><price pkg="vi">2</price></prices>"#)
                .unwrap();
        let out = run(
            r#"for $p in $0//pkg for $r in $1//price where $p/@name = $r/@pkg
               return <quote name="{$p/@name}">{$r/text()}</quote>"#,
            &[vec![catalog()], vec![prices]],
        );
        assert_eq!(
            out,
            [
                r#"<quote name="vim">10</quote>"#,
                r#"<quote name="vi">2</quote>"#
            ]
        );
    }

    #[test]
    fn let_binds_sequences() {
        let out = run(
            r#"let $deps := $0//dep where exists($deps) return <all>{$deps}</all>"#,
            &[vec![catalog()]],
        );
        assert_eq!(out, ["<all><dep>glibc</dep><dep>binutils</dep></all>"]);
    }

    #[test]
    fn forest_inputs_iterate_roots() {
        let t1 = Tree::parse("<u><a>1</a></u>").unwrap();
        let t2 = Tree::parse("<u><a>2</a></u>").unwrap();
        let out = run(
            "for $u in $0 return <got>{$u/a/text()}</got>",
            &[vec![t1, t2]],
        );
        assert_eq!(out, ["<got>1</got>", "<got>2</got>"]);
    }

    #[test]
    fn doc_resolution() {
        let mut docs = std::collections::HashMap::new();
        docs.insert(DocName::new("cat"), catalog());
        let plan = parse_plan(r#"for $d in doc("cat")//dep return {$d}"#, 0).unwrap();
        let out = plan.eval(&[], &docs).unwrap();
        assert_eq!(out.len(), 2);
        // and unresolved docs error
        let e = plan.eval(&[], &NoDocs).unwrap_err();
        assert!(matches!(e, QueryError::UnresolvedDoc(_)));
    }

    #[test]
    fn text_steps() {
        let t = Tree::parse("<r><a>x<b>y</b></a></r>").unwrap();
        // /text() → string value of the node
        let out = run(
            "for $a in $0/a return <v>{$a/text()}</v>",
            &[vec![t.clone()]],
        );
        assert_eq!(out, ["<v>xy</v>"]);
        // //text() → each text leaf separately
        let out2 = run("for $a in $0/a return <v>{$a//text()}</v>", &[vec![t]]);
        assert_eq!(out2, ["<v>xy</v>"]);
    }

    #[test]
    fn descendant_attr_collects() {
        let out = run("$0//pkg/@name", &[vec![catalog()]]);
        assert_eq!(
            out,
            ["<text>vim</text>", "<text>gcc</text>", "<text>vi</text>"]
        );
    }

    #[test]
    fn empty_result() {
        let out = run(
            r#"for $p in $0//pkg where $p/@name = "nonexistent" return {$p}"#,
            &[vec![catalog()]],
        );
        assert!(out.is_empty());
    }

    #[test]
    fn arity_checked() {
        let plan = parse_plan("$1/x", 0).unwrap();
        let e = plan.eval(&[], &NoDocs).unwrap_err();
        assert!(matches!(e, QueryError::ArityMismatch { .. }));
    }

    #[test]
    fn wildcard_steps() {
        let out = run("for $x in $0/* return {$x/@name}", &[vec![catalog()]]);
        assert_eq!(out.len(), 3);
        let out2 = run("$0//pkg/*", &[vec![catalog()]]);
        // version+size ×3 plus deps
        assert_eq!(out2.len(), 7);
    }

    #[test]
    fn not_and_or() {
        let out = run(
            r#"for $p in $0//pkg where not(exists($p/deps)) and ($p/@name = "vi" or $p/@name = "vim") return {$p/@name}"#,
            &[vec![catalog()]],
        );
        assert_eq!(out, ["<text>vim</text>", "<text>vi</text>"]);
    }

    #[test]
    fn names_that_parse_as_floats_compare_as_strings() {
        let names = ["nan", "NaN", "inf", "INF", "infinity", "Infinity", "1e3"];
        let pkgs: String = names.map(|n| format!(r#"<pkg name="{n}"/>"#)).concat();
        let doc = [vec![Tree::parse(&format!("<c>{pkgs}</c>")).unwrap()]];
        let named = |op: &str, lit: &str| {
            let src =
                format!(r#"for $p in $0/pkg where $p/@name {op} "{lit}" return {{$p/@name}}"#);
            run(&src, &doc)
        };
        for name in &names[..6] {
            assert_eq!(named("=", name), [format!("<text>{name}</text>")]);
            assert_eq!(named("!=", name).len(), 6, "{name} differs from the rest");
        }
        // Numerals still compare as numbers.
        assert_eq!(named("=", "1000"), ["<text>1e3</text>"]);
        assert_eq!(named("<", "2e3"), ["<text>1e3</text>"]);
    }

    /// Which scans are closed, and which of those an arena may keep:
    /// elements read from the start node alone.
    #[test]
    fn only_variable_free_scans_are_closed() {
        let closed = |src: &str| -> Vec<(bool, bool)> {
            let plan = parse_plan(src, 2).unwrap();
            let (_, levels) = plan.levels();
            levels.iter().map(|l| (l.memo.is_some(), l.kept)).collect()
        };
        let deep = "for $x in $0//pkg for $y in $1//pkg[@name = $x/@name] return {$y}";
        assert_eq!(closed(deep), [(true, true), (false, false)]);
        let own = r#"for $x in $0//pkg for $y in doc("d")//pkg[size > 100000] return {$y}"#;
        assert_eq!(closed(own), [(true, true), (true, true)]);
        let source = r#"for $i in doc("board")/item[@topic = $0/text()] return {$i}"#;
        assert_eq!(closed(source), [(true, false)]);
        let atoms = r#"for $n in $0//pkg/@name let $d := doc("d") return {$n}"#;
        assert_eq!(closed(atoms), [(true, false), (true, false)]);
    }

    #[test]
    fn conjuncts_run_where_their_variables_bind() {
        // A closed `for`'s own conjuncts filter its scan; the rest of the
        // level's conjuncts run per tuple, and so do a `let`'s.
        let src = r#"for $x in $0/a for $y in $1/b let $z := $0/c
            where $x/@k = $y/@k and $x/@k > 1 and exists(doc("d")/e)
            and $y/@k = doc("d")/@k and exists($z/d) and $y/e[@k = "1"]/@j != "2"
            return {$y}"#;
        let plan = parse_plan(src, 2).unwrap();
        let (first, levels) = plan.levels();
        let own: Vec<usize> = levels.iter().map(|l| l.own.len()).collect();
        let then: Vec<usize> = levels.iter().map(|l| l.then.len()).collect();
        assert_eq!((first.len(), own, then), (1, vec![1, 1, 0], vec![0, 2, 1]));
    }

    fn counted() -> Tree {
        Tree::parse(
            r#"<catalog>
                 <pkg name="gcc"><deps><dep>a</dep><dep>b</dep><dep>c</dep></deps></pkg>
                 <pkg name="vim"><deps><dep>a</dep></deps></pkg>
                 <pkg name="sed"/>
               </catalog>"#,
        )
        .unwrap()
    }

    #[test]
    fn count_in_where_clause() {
        let out = run(
            r#"for $p in $0//pkg where count($p/deps/dep) >= 2 return {$p/@name}"#,
            &[vec![counted()]],
        );
        assert_eq!(out, ["<text>gcc</text>"]);
    }

    #[test]
    fn count_zero_matches() {
        let out = run(
            r#"for $p in $0//pkg where count($p/deps/dep) = 0 return {$p/@name}"#,
            &[vec![counted()]],
        );
        assert_eq!(out, ["<text>sed</text>"]);
    }

    #[test]
    fn count_in_path_predicate() {
        let out = run(r#"$0//pkg[count(deps/dep) = 1]/@name"#, &[vec![counted()]]);
        assert_eq!(out, ["<text>vim</text>"]);
    }

    #[test]
    fn count_parses_to_a_cardinality_predicate() {
        let src = r#"for $p in $0//pkg where count($p/deps/dep) > 1 return {$p}"#;
        let plan = parse_plan(src, 0).unwrap();
        assert!(matches!(
            plan.ops,
            Op::Filter {
                pred: PredPlan::CountCmp {
                    op: CmpOp::Gt,
                    n: 1,
                    ..
                },
                ..
            }
        ));
    }

    #[test]
    fn count_rejects_non_integer_bound() {
        assert!(parse_plan(r#"for $p in $0 where count($p/x) > 1.5 return {$p}"#, 0).is_err());
        assert!(parse_plan(r#"for $p in $0 where count($p/x) ~ 1 return {$p}"#, 0).is_err());
    }
}
