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
//!   numeric when **both** sides parse as numbers, string-wise otherwise.
//! * A top-level bare `{path}` template emits one result tree per matched
//!   item; atoms become `<text>…</text>` trees.

use crate::error::{QueryError, QueryResult};
use crate::plan::{
    AttrTplPlan, Axis, CmpOp, Op, OperandPlan, PathPlan, Plan, PlanStep, PlanTest, PredPlan,
    SourceRef, StartRef, TemplatePlan,
};
use axml_xml::ids::DocName;
use axml_xml::tree::{NodeId, NodeKind, Tree};

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

/// One value flowing through a path: a node of some input tree, or an
/// atomic string (attribute/text value).
#[derive(Debug, Clone)]
pub enum PItem<'a> {
    /// A node inside a context tree.
    Node {
        /// The tree.
        tree: &'a Tree,
        /// The node.
        node: NodeId,
    },
    /// An atomic string value.
    Atom(String),
}

impl PItem<'_> {
    /// XPath-style atomization: nodes become their string value.
    pub fn atomize(&self) -> String {
        match self {
            PItem::Node { tree, node } => tree.text(*node),
            PItem::Atom(s) => s.clone(),
        }
    }
}

/// A bound variable value.
#[derive(Debug, Clone)]
pub enum BindVal<'a> {
    /// A single item (`for` variables).
    One(PItem<'a>),
    /// A whole sequence (`let` variables).
    Seq(Vec<PItem<'a>>),
}

type Binds<'a> = Vec<Option<BindVal<'a>>>;

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
        // Collect the operator chain innermost-first (Unit excluded).
        let mut chain: Vec<&Op> = Vec::with_capacity(4);
        let mut cur = Some(&self.ops);
        while let Some(op) = cur {
            if !matches!(op, Op::Unit) {
                chain.push(op);
            }
            cur = op.input();
        }
        chain.reverse();
        let mut binds: Binds<'a> = vec![None; self.n_vars];
        let mut out = Vec::new();
        self.run(&chain, ctx, &mut binds, &mut out)?;
        Ok(out)
    }

    fn run<'a>(
        &self,
        ops: &[&Op],
        ctx: &Ctx<'a>,
        binds: &mut Binds<'a>,
        out: &mut Vec<Tree>,
    ) -> QueryResult<()> {
        match ops.first() {
            None => {
                out.extend(construct(&self.template, ctx, binds)?);
                Ok(())
            }
            Some(Op::ForEach { var, path, .. }) => {
                let items = eval_path(path, ctx, binds, None)?;
                for it in items {
                    binds[*var] = Some(BindVal::One(it));
                    self.run(&ops[1..], ctx, binds, out)?;
                }
                binds[*var] = None;
                Ok(())
            }
            Some(Op::LetBind { var, path, .. }) => {
                let items = eval_path(path, ctx, binds, None)?;
                binds[*var] = Some(BindVal::Seq(items));
                self.run(&ops[1..], ctx, binds, out)?;
                binds[*var] = None;
                Ok(())
            }
            Some(Op::Filter { pred, .. }) => {
                if eval_pred(pred, ctx, binds, None)? {
                    self.run(&ops[1..], ctx, binds, out)?;
                }
                Ok(())
            }
            Some(Op::Unit) => Err(QueryError::Internal(
                "Unit inside the operator chain".into(),
            )),
        }
    }
}

/// Evaluate a path to its item sequence.
pub fn eval_path<'a>(
    path: &PathPlan,
    ctx: &Ctx<'a>,
    binds: &Binds<'a>,
    context: Option<&PItem<'a>>,
) -> QueryResult<Vec<PItem<'a>>> {
    let mut items: Vec<PItem<'a>> = match &path.start {
        StartRef::Source(SourceRef::Param(i)) => ctx
            .param(*i)?
            .iter()
            .map(|t| PItem::Node {
                tree: t,
                node: t.root(),
            })
            .collect(),
        StartRef::Source(SourceRef::Doc(d)) => {
            let tree = ctx
                .docs
                .resolve(d)
                .ok_or_else(|| QueryError::UnresolvedDoc(d.to_string()))?;
            if let Some(Delta::DocChild { doc, child }) = ctx.delta {
                if doc == d {
                    return eval_doc_delta(path, tree, child, ctx, binds);
                }
            }
            vec![PItem::Node {
                tree,
                node: tree.root(),
            }]
        }
        StartRef::Var(v) => match binds.get(*v).and_then(|b| b.as_ref()) {
            Some(BindVal::One(it)) => vec![it.clone()],
            Some(BindVal::Seq(s)) => s.clone(),
            None => {
                return Err(QueryError::Internal(format!(
                    "variable slot {v} unbound at evaluation time"
                )))
            }
        },
        StartRef::Context => match context {
            Some(it) => vec![it.clone()],
            None => {
                return Err(QueryError::Internal(
                    "context path outside a predicate".into(),
                ))
            }
        },
    };
    for step in &path.steps {
        items = apply_step(step, &items, ctx, binds)?;
    }
    Ok(items)
}

/// A document path over [`Delta::DocChild`]: what the path yields through
/// `child` and no other child of the root. Both axes only go down, so the
/// first step is the only one that looks at the root's children.
fn eval_doc_delta<'a>(
    path: &PathPlan,
    tree: &'a Tree,
    child: NodeId,
    ctx: &Ctx<'a>,
    binds: &Binds<'a>,
) -> QueryResult<Vec<PItem<'a>>> {
    // The root's own text and attributes are not a sum over its
    // children; the picker never narrows such a path.
    let (first, rest) = match path.steps.split_first() {
        Some((first, rest)) if !matches!(first.test, PlanTest::Text | PlanTest::Attr(_)) => {
            (first, rest)
        }
        _ => {
            return Err(QueryError::Internal(
                "document delta under a path that does not start with an element step".into(),
            ))
        }
    };
    let below: Vec<NodeId> = match first.axis {
        Axis::Child => vec![child],
        Axis::Descendant => tree.descendants_with_self(child).collect(),
    };
    let nodes = below
        .into_iter()
        .filter(|n| node_test_matches(&first.test, tree, *n))
        .map(|node| PItem::Node { tree, node })
        .collect();
    let mut items = keep_satisfying(first, nodes, ctx, binds)?;
    for step in rest {
        items = apply_step(step, &items, ctx, binds)?;
    }
    Ok(items)
}

/// Does `node` pass a node test? (Atom tests select no node.)
pub(crate) fn node_test_matches(test: &PlanTest, t: &Tree, node: NodeId) -> bool {
    match test {
        PlanTest::Label(l) => t.label(node) == Some(*l),
        PlanTest::Wildcard => t.node(node).is_element(),
        PlanTest::Text | PlanTest::Attr(_) => false,
    }
}

fn apply_step<'a>(
    step: &PlanStep,
    items: &[PItem<'a>],
    ctx: &Ctx<'a>,
    binds: &Binds<'a>,
) -> QueryResult<Vec<PItem<'a>>> {
    let mut out: Vec<PItem<'a>> = Vec::new();
    for it in items {
        let (tree, node) = match it {
            PItem::Node { tree, node } => (*tree, *node),
            PItem::Atom(_) => continue, // steps do not apply to atoms
        };
        match (&step.axis, &step.test) {
            (Axis::Child, PlanTest::Label(l)) => {
                for c in tree.children_labeled(node, l.as_str()) {
                    out.push(PItem::Node { tree, node: c });
                }
            }
            (Axis::Child, PlanTest::Wildcard) => {
                for &c in tree.children(node) {
                    if tree.node(c).is_element() {
                        out.push(PItem::Node { tree, node: c });
                    }
                }
            }
            (Axis::Child, PlanTest::Text) => {
                let v = tree.text(node);
                if !v.is_empty() {
                    out.push(PItem::Atom(v));
                }
            }
            (Axis::Child, PlanTest::Attr(a)) => {
                if let Some(v) = tree.attr(node, a.as_str()) {
                    out.push(PItem::Atom(v.to_string()));
                }
            }
            (Axis::Descendant, PlanTest::Label(l)) => {
                for d in tree.descendants_labeled(node, l.as_str()) {
                    out.push(PItem::Node { tree, node: d });
                }
            }
            (Axis::Descendant, PlanTest::Wildcard) => {
                for d in tree.descendants(node) {
                    if tree.node(d).is_element() {
                        out.push(PItem::Node { tree, node: d });
                    }
                }
            }
            (Axis::Descendant, PlanTest::Text) => {
                for d in tree.descendants(node) {
                    if let NodeKind::Text(t) = tree.node(d).kind() {
                        out.push(PItem::Atom(t.clone()));
                    }
                }
            }
            (Axis::Descendant, PlanTest::Attr(a)) => {
                for d in tree.descendants_with_self(node) {
                    if let Some(v) = tree.attr(d, a.as_str()) {
                        out.push(PItem::Atom(v.to_string()));
                    }
                }
            }
        }
    }
    keep_satisfying(step, out, ctx, binds)
}

/// The items of `out` that satisfy every predicate of `step`.
fn keep_satisfying<'a>(
    step: &PlanStep,
    out: Vec<PItem<'a>>,
    ctx: &Ctx<'a>,
    binds: &Binds<'a>,
) -> QueryResult<Vec<PItem<'a>>> {
    if step.preds.is_empty() {
        return Ok(out);
    }
    let mut kept = Vec::with_capacity(out.len());
    'items: for it in out {
        for pred in &step.preds {
            if !eval_pred(pred, ctx, binds, Some(&it))? {
                continue 'items;
            }
        }
        kept.push(it);
    }
    Ok(kept)
}

/// Evaluate a predicate.
pub fn eval_pred<'a>(
    pred: &PredPlan,
    ctx: &Ctx<'a>,
    binds: &Binds<'a>,
    context: Option<&PItem<'a>>,
) -> QueryResult<bool> {
    Ok(match pred {
        PredPlan::And(a, b) => {
            eval_pred(a, ctx, binds, context)? && eval_pred(b, ctx, binds, context)?
        }
        PredPlan::Or(a, b) => {
            eval_pred(a, ctx, binds, context)? || eval_pred(b, ctx, binds, context)?
        }
        PredPlan::Not(c) => !eval_pred(c, ctx, binds, context)?,
        PredPlan::Cmp { lhs, op, rhs } => {
            let left: Vec<String> = eval_path(lhs, ctx, binds, context)?
                .iter()
                .map(PItem::atomize)
                .collect();
            let right: Vec<String> = match rhs {
                OperandPlan::Literal(l) => vec![l.clone()],
                OperandPlan::Path(p) => eval_path(p, ctx, binds, context)?
                    .iter()
                    .map(PItem::atomize)
                    .collect(),
            };
            left.iter()
                .any(|a| right.iter().any(|b| compare(*op, a, b)))
        }
        PredPlan::Contains { path, needle } => eval_path(path, ctx, binds, context)?
            .iter()
            .any(|it| it.atomize().contains(needle.as_str())),
        PredPlan::Exists(p) => !eval_path(p, ctx, binds, context)?.is_empty(),
        PredPlan::CountCmp { path, op, n } => {
            let count = eval_path(path, ctx, binds, context)?.len() as f64;
            compare(*op, &count.to_string(), &n.to_string())
        }
    })
}

/// Compare two atoms: numerically when both parse as numbers, else as
/// strings.
pub fn compare(op: CmpOp, a: &str, b: &str) -> bool {
    if let (Ok(x), Ok(y)) = (a.parse::<f64>(), b.parse::<f64>()) {
        return match op {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        };
    }
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

/// Instantiate a template under the current bindings, producing the result
/// trees for one binding tuple.
pub fn construct<'a>(
    template: &TemplatePlan,
    ctx: &Ctx<'a>,
    binds: &Binds<'a>,
) -> QueryResult<Vec<Tree>> {
    match template {
        TemplatePlan::Splice(path) => {
            // A bare top-level splice: one tree per item.
            let items = eval_path(path, ctx, binds, None)?;
            Ok(items
                .into_iter()
                .map(|it| match it {
                    // Zero-copy: result trees are views into the input
                    // document's arena (copy-on-write if mutated later).
                    PItem::Node { tree, node } => tree
                        .subtree(node)
                        .expect("path items reference valid nodes"),
                    PItem::Atom(s) => {
                        let mut t = Tree::new("text");
                        let r = t.root();
                        t.add_text(r, s);
                        t
                    }
                })
                .collect())
        }
        TemplatePlan::Text(s) => {
            let mut t = Tree::new("text");
            let r = t.root();
            t.add_text(r, s.clone());
            Ok(vec![t])
        }
        TemplatePlan::Element { label, .. } => {
            let mut t = Tree::new(*label);
            let root = t.root();
            fill_element(template, &mut t, root, ctx, binds)?;
            Ok(vec![t])
        }
    }
}

/// Fill `at` (already created with the element's label) from the template.
fn fill_element<'a>(
    template: &TemplatePlan,
    t: &mut Tree,
    at: NodeId,
    ctx: &Ctx<'a>,
    binds: &Binds<'a>,
) -> QueryResult<()> {
    let TemplatePlan::Element {
        attrs, children, ..
    } = template
    else {
        return Err(QueryError::Internal("fill_element on non-element".into()));
    };
    for (name, v) in attrs {
        let value = match v {
            AttrTplPlan::Literal(s) => s.clone(),
            AttrTplPlan::Splice(p) => {
                let atoms: Vec<String> = eval_path(p, ctx, binds, None)?
                    .iter()
                    .map(PItem::atomize)
                    .collect();
                atoms.join(" ")
            }
        };
        t.set_attr(at, *name, value)
            .map_err(|e| QueryError::Internal(e.to_string()))?;
    }
    for c in children {
        match c {
            TemplatePlan::Text(s) => {
                t.add_text(at, s.clone());
            }
            TemplatePlan::Element { label, .. } => {
                let el = t.add_element(at, *label);
                fill_element(c, t, el, ctx, binds)?;
            }
            TemplatePlan::Splice(p) => {
                for it in eval_path(p, ctx, binds, None)? {
                    match it {
                        PItem::Node { tree, node } => {
                            t.graft(at, tree, node)
                                .map_err(|e| QueryError::Internal(e.to_string()))?;
                        }
                        PItem::Atom(s) => {
                            t.add_text(at, s);
                        }
                    }
                }
            }
        }
    }
    Ok(())
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
}

#[cfg(test)]
mod count_tests {
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
            &[vec![catalog()]],
        );
        assert_eq!(out, ["<text>gcc</text>"]);
    }

    #[test]
    fn count_zero_matches() {
        let out = run(
            r#"for $p in $0//pkg where count($p/deps/dep) = 0 return {$p/@name}"#,
            &[vec![catalog()]],
        );
        assert_eq!(out, ["<text>sed</text>"]);
    }

    #[test]
    fn count_in_path_predicate() {
        let out = run(r#"$0//pkg[count(deps/dep) = 1]/@name"#, &[vec![catalog()]]);
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
