//! Property tests for the query subsystem:
//!
//! * the parser answers mutated sources with `Ok` or a typed error, and
//!   what it accepts round-trips through the wire form,
//! * a plan prints as text the parser reads back to the same plan, for
//!   mutated sources, seeded random plans and their rule (13) rewrites,
//! * continuous (delta) evaluation ≡ batch re-evaluation,
//! * the evaluator ≡ a materialising reference interpreter on random
//!   plans, plain and under both `Delta` arms,
//! * `decompose_selection` preserves semantics on random inputs — the
//!   query-level half of the paper's equivalence rules (10)/(11) — and so
//!   does `share_param`, rule (13)'s.

use axml_prng::SplitMix64;
use axml_query::eval::{Ctx, Delta, NoDocs};
use axml_query::parser::parse_plan;
use axml_query::plan::{CmpOp, Op, OperandPlan, PathPlan, Plan, PredPlan, StartRef, VarId};
use axml_query::{Query, QueryError};
use axml_xml::equiv::{forest_equiv, CanonMultiset};
use axml_xml::ids::DocName;
use axml_xml::tree::Tree;
use proptest::prelude::*;
use std::collections::HashMap;

/// Random package catalogs: the workload family used across the repo.
fn arb_catalog() -> impl Strategy<Value = Tree> {
    proptest::collection::vec(
        (
            "[a-z]{1,6}",
            0u32..100_000,
            proptest::collection::vec("[a-z]{1,5}", 0..3),
        ),
        0..8,
    )
    .prop_map(|pkgs| {
        let mut t = Tree::new("catalog");
        let root = t.root();
        for (name, size, deps) in pkgs {
            let p = t.add_element(root, "pkg");
            t.set_attr(p, "name", name).unwrap();
            t.add_text_element(p, "size", size.to_string());
            if !deps.is_empty() {
                let d = t.add_element(p, "deps");
                for dep in deps {
                    t.add_text_element(d, "dep", dep);
                }
            }
        }
        t
    })
}

/// A pool of query sources exercising different operator shapes.
fn query_pool() -> Vec<&'static str> {
    vec![
        r#"for $p in $0//pkg where $p/size/text() > 5000 return <big>{$p/@name}</big>"#,
        r#"for $p in $0//pkg where contains($p/@name, "a") return {$p}"#,
        r#"for $p in $0//pkg[deps/dep = "ab"] return <d n="{$p/@name}"/>"#,
        r#"for $p in $0//pkg where not(exists($p/deps)) return <leaf>{$p/@name}</leaf>"#,
        "$0//dep",
        r#"for $a in $0//pkg for $b in $0//pkg where $a/size/text() < $b/size/text() return <lt/>"#,
        r#"let $all := $0//pkg where exists($all) return <count>{$all/@name}</count>"#,
        r#"for $p in $0//pkg where $p/size/text() >= 100 and $p/size/text() <= 50000 return {$p/size}"#,
        r#"for $p in $0//pkg where count($p/deps/dep) >= 2 return <multi>{$p/@name}</multi>"#,
    ]
}

fn arb_query() -> impl Strategy<Value = Query> {
    (0..query_pool().len()).prop_map(|i| Query::parse("q", query_pool()[i]).unwrap())
}

/// The monotone subset: every result, once produced, stays in the batch
/// answer as the input grows. (The `let`-aggregation query is excluded:
/// its single output tree *changes* with the input, and the continuous
/// evaluator — matching the paper's append-only stream semantics — emits
/// additions without retracting.)
fn arb_monotone_query() -> impl Strategy<Value = Query> {
    let pool: Vec<&str> = query_pool()
        .into_iter()
        .filter(|s| !s.starts_with("let"))
        .collect();
    (0..pool.len()).prop_map(move |i| Query::parse("q", pool[i]).unwrap())
}

/// The trees `admit_equals_budget_reference` feeds the filter are two
/// levels deep under one root label, so the sorted texts of the root's
/// children name a tree up to sibling order exactly — a key that does not
/// go through the canonical walk the filter keys by.
fn children_key(t: &Tree) -> Vec<String> {
    let mut key: Vec<String> = t
        .children(t.root())
        .iter()
        .map(|&c| t.serialize_node(c))
        .collect();
    key.sort();
    key
}

/// The delta filter `CanonMultiset::admit` replaced, kept as its
/// reference: spend a clone of the delivered counts as a budget, then
/// count the fresh trees in.
fn budget_reference(emitted: &mut HashMap<Vec<String>, usize>, results: Vec<Tree>) -> Vec<Tree> {
    let mut budget = emitted.clone();
    let mut fresh = Vec::new();
    for t in results {
        match budget.get_mut(&children_key(&t)) {
            Some(n) if *n > 0 => *n -= 1,
            _ => fresh.push(t),
        }
    }
    for t in &fresh {
        *emitted.entry(children_key(t)).or_insert(0) += 1;
    }
    fresh
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `admit` lets through exactly what the budget reference does, in the
    /// same order, on batches with repeats — including a second batch that
    /// re-sends part of the first and a third that re-sends everything.
    #[test]
    fn admit_equals_budget_reference(
        first in proptest::collection::vec((0usize..6, 0u8..2), 0..12),
        extra in proptest::collection::vec(0usize..8, 0..8),
    ) {
        // Equivalent up to sibling order: odd positions flip the children.
        let tree = |at: usize, i: usize| {
            let xml = [format!("<r><a>{i}</a><b/></r>"), format!("<r><b/><a>{i}</a></r>")];
            Tree::parse(&xml[at & 1]).unwrap()
        };
        let batch1: Vec<Tree> = first.iter().enumerate().map(|(at, (i, _))| tree(at, *i)).collect();
        let mut batch2: Vec<Tree> = first
            .iter()
            .enumerate()
            .filter(|(_, (_, resend))| *resend == 1)
            .map(|(at, (i, _))| tree(at + 1, *i))
            .collect();
        batch2.extend(extra.iter().enumerate().map(|(at, i)| tree(at, *i)));
        let batch3: Vec<Tree> = batch1.iter().chain(&batch2).cloned().collect();
        let (mut set, mut reference) = (CanonMultiset::default(), HashMap::new());
        for batch in [batch1, batch2, batch3] {
            let ser = |ts: Vec<Tree>| ts.iter().map(Tree::serialize).collect::<Vec<_>>();
            prop_assert_eq!(
                ser(set.admit(batch.clone())),
                ser(budget_reference(&mut reference, batch))
            );
        }
    }

    /// Continuous evaluation emits, across a whole stream, exactly the
    /// batch result over the accumulated forest.
    #[test]
    fn delta_equals_batch(
        q in arb_monotone_query(),
        stream in proptest::collection::vec(arb_catalog(), 1..6),
    ) {
        let mut cont = q.continuous(&NoDocs).unwrap();
        let mut emitted = Vec::new();
        for t in &stream {
            emitted.extend(cont.push(0, t.clone()).unwrap());
        }
        let batch = q.eval_batch(&[stream]).unwrap();
        prop_assert!(forest_equiv(&emitted, &batch),
            "continuous {} vs batch {}", emitted.len(), batch.len());
    }

    /// Decomposition (Example 1 / rule 11) preserves results whenever it
    /// applies.
    #[test]
    fn decompose_preserves(
        q in arb_query(),
        input in proptest::collection::vec(arb_catalog(), 0..4),
    ) {
        if let Some((outer, pushed)) = q.decompose_selection() {
            let direct = q.eval_batch(std::slice::from_ref(&input)).unwrap();
            let mid = pushed.eval_batch(&[input]).unwrap();
            let composed = outer.eval_batch(std::slice::from_ref(&mid)).unwrap();
            prop_assert!(forest_equiv(&direct, &composed));
            prop_assert!(mid.len() >= composed.len() || composed.is_empty()
                || mid.len() == composed.len());
        }
    }

    /// Query XML serialization round-trips and preserves semantics.
    #[test]
    fn wire_roundtrip(
        q in arb_query(),
        input in proptest::collection::vec(arb_catalog(), 0..3),
    ) {
        let xml = Tree::parse(q.wire_xml()).unwrap();
        let back = Query::from_xml(&xml, xml.root()).unwrap();
        prop_assert_eq!(&q, &back);
        let a = q.eval_batch(std::slice::from_ref(&input)).unwrap();
        let b = back.eval_batch(&[input]).unwrap();
        prop_assert!(forest_equiv(&a, &b));
    }

    /// Estimation sanity: non-negative and zero on empty input.
    #[test]
    fn estimates_sane(q in arb_query(), input in proptest::collection::vec(arb_catalog(), 0..4)) {
        use axml_query::estimate::{estimate, ForestStats, View};
        let stats = ForestStats::collect(&input);
        let e = estimate(q.plan(), &[View::of(&stats)], &|_| None).unwrap();
        prop_assert!(e.cardinality >= 0.0);
        prop_assert!(e.bytes >= 0.0);
        if input.is_empty() {
            prop_assert_eq!(e.cardinality, 0.0);
        }
    }
}

/// Query text arrives from other peers (definition (8), shipped
/// expressions): whatever the bytes, `Query::parse` returns — a plan or a
/// typed error, never a panic, never a loop — and what it accepts prints
/// as text that parses back to the same plan, and survives the wire form
/// with an equal plan.
#[test]
fn parse_survives_mutated_sources() {
    const SOURCES: [&str; 4] = [
        r#"for $a in $0//pkg for $b in $1//pkg where $a/@name = $b/@name and not(contains($a/size/text(), "9")) return <pair a="{$a/@name}">{$b/version}</pair>"#,
        r#"let $all := doc("catalog")//pkg[version = "9.1"][@name != "x"]/deps[exists(dep)] where count($all/dep) >= 2 return <n>{$all}</n>"#,
        r#"for $x in $0/a return <out k="lit" v="{$x/@id}">héllo {{braces}} &lt;tag&gt; &amp; {$x}<in/>✓</out>"#,
        r#"$0//pkg[deps/dep = "glibc" or size/text() < 10]/@name"#,
    ];
    let mut rng = SplitMix64::new(0x5EED_0018);
    let (mut parsed, mut rejected) = (0, 0);
    for i in 0..60_000 {
        let mut bytes = SOURCES[i % SOURCES.len()].as_bytes().to_vec();
        for _ in 0..rng.gen_range(1u32..4) {
            rng.mutate_bytes(&mut bytes);
        }
        let src = String::from_utf8_lossy(&bytes);
        match Query::parse("q", &src) {
            Ok(q) => {
                let p = q.plan();
                let printed = p.to_string();
                let back =
                    parse_plan(&printed, p.arity).unwrap_or_else(|e| panic!("{printed}: {e}"));
                assert_eq!(&back, p, "{src:?} printed as {printed:?}");
                let xml = Tree::parse(q.wire_xml()).unwrap();
                let back = Query::from_xml(&xml, xml.root()).unwrap();
                assert_eq!(q.plan(), back.plan(), "{src:?}");
                parsed += 1;
            }
            Err(_) => rejected += 1,
        }
    }
    assert!(parsed > 1_000 && rejected > 30_000, "{parsed} / {rejected}");
}

/// Conditions and template elements nest 128 deep (`MAX_DEPTH` in
/// `parser.rs`) and no deeper: past the cap the answer is a syntax
/// error, where 100 000 levels used to overflow the stack and abort the
/// process.
#[test]
fn nesting_is_bounded() {
    let parens = |n: usize| {
        let (open, close) = ("(".repeat(n), ")".repeat(n));
        format!(r#"for $x in $0 where {open}$x/a = "1"{close} return <r/>"#)
    };
    let preds = |n: usize| format!("$0/a{}{}", "[b".repeat(n), r#" = "1"]"#.repeat(n));
    let elements = |n: usize| {
        let (open, close) = ("<e>".repeat(n), "</e>".repeat(n));
        format!("for $x in $0 return <r>{open}{close}</r>")
    };
    // The `where` condition and each `[…]` are themselves a level.
    assert!(Query::parse("q", &parens(127)).is_ok());
    assert!(Query::parse("q", &preds(128)).is_ok());
    assert!(Query::parse("q", &elements(128)).is_ok());
    for src in [
        parens(128),
        preds(129),
        elements(129),
        parens(100_000),
        preds(100_000),
        elements(100_000),
        format!("for $x in $0 where {}", "(".repeat(100_000)),
    ] {
        match Query::parse("q", &src) {
            Err(QueryError::Syntax { msg, .. }) => assert!(msg.contains("deeper than 128")),
            other => panic!("{:.60}…: {other:?}", src),
        }
    }
}

/// The evaluator's reference: every step a `Vec`, every loop nested, the
/// whole `where` tested innermost, every atom a `String`. Slow on
/// purpose; what it returns is what a plan means.
mod reference {
    use axml_query::plan::*;
    use axml_xml::ids::DocName;
    use axml_xml::tree::{NodeId, Tree};
    use std::collections::HashMap;

    #[derive(Clone)]
    pub enum It<'a> {
        Node(&'a Tree, NodeId),
        Atom(String),
    }

    pub struct Src<'a> {
        pub inputs: &'a [Vec<Tree>],
        pub docs: &'a HashMap<DocName, Tree>,
    }

    /// `for` binds a one-item list, `let` the whole list.
    type Binds<'a> = Vec<Option<Vec<It<'a>>>>;
    type Res<T> = Result<T, String>;

    pub fn eval(plan: &Plan, src: &Src<'_>) -> Res<Vec<String>> {
        let mut chain: Vec<&Op> = std::iter::successors(Some(&plan.ops), |op| op.input()).collect();
        chain.reverse();
        let mut out = Vec::new();
        run(plan, &chain, src, &mut vec![None; plan.n_vars], &mut out)?;
        Ok(out)
    }

    fn run<'a>(
        plan: &Plan,
        ops: &[&Op],
        src: &Src<'a>,
        binds: &mut Binds<'a>,
        out: &mut Vec<String>,
    ) -> Res<()> {
        let Some((op, rest)) = ops.split_first() else {
            return construct(&plan.template, src, binds, out);
        };
        match op {
            Op::Unit => run(plan, rest, src, binds, out)?,
            Op::ForEach { var, path, .. } => {
                for it in items(path, src, binds, None)? {
                    binds[*var] = Some(vec![it]);
                    run(plan, rest, src, binds, out)?;
                }
            }
            Op::LetBind { var, path, .. } => {
                binds[*var] = Some(items(path, src, binds, None)?);
                run(plan, rest, src, binds, out)?;
            }
            Op::Filter { pred, .. } => {
                if holds(pred, src, binds, None)? {
                    run(plan, rest, src, binds, out)?;
                }
            }
        }
        Ok(())
    }

    fn items<'a>(
        path: &PathPlan,
        src: &Src<'a>,
        binds: &Binds<'a>,
        context: Option<&It<'a>>,
    ) -> Res<Vec<It<'a>>> {
        let mut items = match &path.start {
            StartRef::Source(SourceRef::Param(i)) => {
                let forest = src.inputs.get(*i).ok_or("arity")?;
                forest.iter().map(|t| It::Node(t, t.root())).collect()
            }
            StartRef::Source(SourceRef::Doc(d)) => {
                let t = src.docs.get(d).ok_or("unresolved document")?;
                vec![It::Node(t, t.root())]
            }
            StartRef::Var(v) => binds[*v].clone().ok_or("unbound variable")?,
            StartRef::Context => vec![context.ok_or("no context")?.clone()],
        };
        for step in &path.steps {
            let mut next = Vec::new();
            for it in &items {
                let It::Node(t, n) = *it else { continue };
                let below: Vec<NodeId> = match step.axis {
                    Axis::Child => t.children(n).to_vec(),
                    Axis::Descendant => t.descendants(n).collect(),
                };
                match &step.test {
                    PlanTest::Label(_) | PlanTest::Wildcard => {
                        let wanted = |c: &NodeId| match &step.test {
                            PlanTest::Label(l) => t.label(*c) == Some(*l),
                            _ => t.node(*c).is_element(),
                        };
                        next.extend(below.into_iter().filter(wanted).map(|c| It::Node(t, c)));
                    }
                    PlanTest::Text if step.axis == Axis::Child => {
                        next.extend(Some(t.text(n)).filter(|v| !v.is_empty()).map(It::Atom));
                    }
                    PlanTest::Text => {
                        let leaves = below.iter().filter_map(|c| t.node(*c).as_text());
                        next.extend(leaves.map(|s| It::Atom(s.to_string())));
                    }
                    PlanTest::Attr(a) => {
                        let mut at = vec![n];
                        if step.axis == Axis::Descendant {
                            at.extend(below);
                        }
                        let values = at.iter().filter_map(|c| t.attr(*c, a.as_str()));
                        next.extend(values.map(|v| It::Atom(v.to_string())));
                    }
                }
            }
            items = Vec::new();
            for it in next {
                let mut keep = true;
                for pred in &step.preds {
                    keep = keep && holds(pred, src, binds, Some(&it))?;
                }
                if keep {
                    items.push(it);
                }
            }
        }
        Ok(items)
    }

    fn atoms<'a>(
        path: &PathPlan,
        src: &Src<'a>,
        binds: &Binds<'a>,
        context: Option<&It<'a>>,
    ) -> Res<Vec<String>> {
        let atom = |it: It<'_>| match it {
            It::Node(t, n) => t.text(n),
            It::Atom(s) => s,
        };
        Ok(items(path, src, binds, context)?
            .into_iter()
            .map(atom)
            .collect())
    }

    fn holds<'a>(
        pred: &PredPlan,
        src: &Src<'a>,
        binds: &Binds<'a>,
        context: Option<&It<'a>>,
    ) -> Res<bool> {
        Ok(match pred {
            PredPlan::And(a, b) => holds(a, src, binds, context)? && holds(b, src, binds, context)?,
            PredPlan::Or(a, b) => holds(a, src, binds, context)? || holds(b, src, binds, context)?,
            PredPlan::Not(c) => !holds(c, src, binds, context)?,
            PredPlan::Cmp { lhs, op, rhs } => {
                let left = atoms(lhs, src, binds, context)?;
                let right = match rhs {
                    OperandPlan::Literal(l) => vec![l.clone()],
                    OperandPlan::Path(p) => atoms(p, src, binds, context)?,
                };
                left.iter()
                    .any(|a| right.iter().any(|b| compare(*op, a, b)))
            }
            PredPlan::Contains { path, needle } => {
                let hay = atoms(path, src, binds, context)?;
                hay.iter().any(|a| a.contains(needle.as_str()))
            }
            PredPlan::Exists(p) => !items(p, src, binds, context)?.is_empty(),
            PredPlan::CountCmp { path, op, n } => {
                let count = items(path, src, binds, context)?.len();
                compare(*op, &count.to_string(), &n.to_string())
            }
        })
    }

    /// Numeric when both sides read as finite numbers (the generator
    /// writes no `nan` or `inf`; a value like `1e310001000`, which overflows,
    /// is a name), string-wise otherwise.
    fn compare(op: CmpOp, a: &str, b: &str) -> bool {
        let finite = |s: &str| s.parse::<f64>().ok().filter(|x| x.is_finite());
        let ord = match (finite(a), finite(b)) {
            (Some(x), Some(y)) => x.partial_cmp(&y).unwrap(),
            _ => a.cmp(b),
        };
        match op {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }

    fn construct<'a>(
        template: &TemplatePlan,
        src: &Src<'a>,
        binds: &Binds<'a>,
        out: &mut Vec<String>,
    ) -> Res<()> {
        let text = |s: &str| {
            let mut t = Tree::new("text");
            let r = t.root();
            t.add_text(r, s);
            t.serialize()
        };
        match template {
            TemplatePlan::Splice(p) => {
                for it in items(p, src, binds, None)? {
                    out.push(match it {
                        It::Node(t, n) => t.subtree(n).unwrap().serialize(),
                        It::Atom(s) => text(&s),
                    });
                }
            }
            TemplatePlan::Text(s) => out.push(text(s)),
            TemplatePlan::Element { label, .. } => {
                let mut t = Tree::new(*label);
                let root = t.root();
                fill(template, &mut t, root, src, binds)?;
                out.push(t.serialize());
            }
        }
        Ok(())
    }

    fn fill<'a>(
        template: &TemplatePlan,
        t: &mut Tree,
        at: NodeId,
        src: &Src<'a>,
        binds: &Binds<'a>,
    ) -> Res<()> {
        let TemplatePlan::Element {
            attrs, children, ..
        } = template
        else {
            unreachable!("only elements are filled");
        };
        for (name, v) in attrs {
            let value = match v {
                AttrTplPlan::Literal(s) => s.to_string(),
                AttrTplPlan::Splice(p) => atoms(p, src, binds, None)?.join(" "),
            };
            t.set_attr(at, *name, value).unwrap();
        }
        for c in children {
            match c {
                TemplatePlan::Text(s) => drop(t.add_text(at, s.clone())),
                TemplatePlan::Element { label, .. } => {
                    let el = t.add_element(at, *label);
                    fill(c, t, el, src, binds)?;
                }
                TemplatePlan::Splice(p) => {
                    for it in items(p, src, binds, None)? {
                        match it {
                            It::Node(tree, n) => drop(t.graft(at, tree, n).unwrap()),
                            It::Atom(s) => drop(t.add_text(at, s)),
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Seeded random FLWR sources over two parameters and `doc("d")`, and
/// random small forests for them to read.
struct PlanGen {
    rng: SplitMix64,
    /// The variables bound so far.
    vars: Vec<String>,
}

const LABELS: [&str; 3] = ["a", "b", "*"];
/// Names, and numerals of which some are one number spelled two ways.
const VALUES: [&str; 11] = [
    "1", "2", "2.0", "+2", "10", "0", "-0", "1e3", "1000", "x", "xy",
];
const CMP_OPS: [&str; 6] = ["=", "!=", "<", "<=", ">", ">="];

impl PlanGen {
    fn pick<'x>(&mut self, xs: &[&'x str]) -> &'x str {
        xs[self.rng.gen_range(0..xs.len())]
    }

    /// One element step, sometimes two; with `preds`, some carry a step
    /// predicate.
    fn steps(&mut self, preds: bool) -> String {
        let mut s = String::new();
        for _ in 0..1 + usize::from(self.rng.gen_bool(0.2)) {
            s += self.pick(&["/", "//"]);
            s += self.pick(&LABELS);
            if preds && self.rng.gen_bool(0.3) {
                s += &format!("[{}]", self.cond(1, true));
            }
        }
        s
    }

    /// An atom step to end a path with, more often where the path is read
    /// as a value than where a loop goes on from its items.
    fn tail(&mut self, value: bool) -> &'static str {
        match self.rng.gen_bool(if value { 0.6 } else { 0.15 }) {
            true => self.pick(&["/@k", "//@k", "/text()", "//text()"]),
            false => "",
        }
    }

    /// A path from a bound variable (when there is one) or a source.
    fn path(&mut self, preds: bool, value: bool) -> String {
        if !self.vars.is_empty() && self.rng.gen_bool(0.7) {
            let at = self.rng.gen_range(0..self.vars.len());
            let var = self.vars[at].clone();
            return self.path_from(&var, preds, value);
        }
        self.source_path(preds, value)
    }

    fn source_path(&mut self, preds: bool, value: bool) -> String {
        let source = self.pick(&["$0", "$1", r#"doc("d")"#]);
        format!("{source}{}{}", self.steps(preds), self.tail(value))
    }

    fn path_from(&mut self, var: &str, preds: bool, value: bool) -> String {
        let steps = if self.rng.gen_bool(0.3) {
            String::new()
        } else {
            self.steps(preds)
        };
        format!("{var}{steps}{}", self.tail(value))
    }

    /// A path from `var` that ends in atoms — one side of a join.
    fn atoms_from(&mut self, var: &str) -> String {
        let steps = match self.rng.gen_bool(0.5) {
            true => self.steps(true),
            false => String::new(),
        };
        format!("{var}{steps}{}", self.pick(&["//@k", "//text()"]))
    }

    /// An operand: inside a step predicate (`relative`) mostly a path from
    /// the context, now and then an outer variable.
    fn operand(&mut self, relative: bool) -> String {
        if relative && (self.vars.is_empty() || self.rng.gen_bool(0.7)) {
            self.pick(&["@k", "text()", "a", "b/@k", "*//text()", "a/text()"])
                .to_string()
        } else {
            self.path(false, true)
        }
    }

    fn cond(&mut self, depth: usize, relative: bool) -> String {
        let p = self.operand(relative);
        let op = self.pick(&CMP_OPS);
        match self.rng.gen_range(0..if depth < 3 { 9 } else { 6 }) {
            0 | 1 => format!(r#"{p} {op} "{}""#, self.pick(&VALUES)),
            2 => format!("{p} {op} {}", self.pick(&["1", "2", "10", "2.5", "-1"])),
            3 => format!("{p} {op} {}", self.operand(relative)),
            4 => format!("exists({p})"),
            5 if self.rng.gen_bool(0.5) => format!(r#"contains({p}, "{}")"#, self.pick(&VALUES)),
            5 => format!("count({p}) {op} {}", self.rng.gen_range(0..3u32)),
            6 => format!("not({})", self.cond(depth + 1, relative)),
            n => format!(
                "({} {} {})",
                self.cond(depth + 1, relative),
                ["or", "and"][n - 7],
                self.cond(depth + 1, relative)
            ),
        }
    }

    fn template(&mut self) -> String {
        if self.rng.gen_bool(0.3) {
            return format!("{{{}}}", self.path(true, false));
        }
        format!(
            r#"<r k="{{{}}}" f="lit">{{{}}}t<s>{{{}}}</s></r>"#,
            self.path(false, true),
            self.path(true, false),
            self.path(false, true)
        )
    }

    fn query(&mut self) -> String {
        self.vars.clear();
        let (mut src, mut terms) = (String::new(), Vec::new());
        for i in 0..self.rng.gen_range(1..4usize) {
            // Now and then a join: a scan of a source, and an equality
            // between atoms from it and from an earlier variable. (Some are
            // none: the scan is a `let`, or its side reads both variables.)
            let join = i > 0 && self.rng.gen_bool(0.2);
            let path = match join {
                true => self.source_path(true, false),
                false => self.path(true, false),
            };
            let clause = if self.rng.gen_bool(0.2) {
                format!("let $v{i} := {path} ")
            } else {
                format!("for $v{i} in {path} ")
            };
            src += &clause;
            self.vars.push(format!("$v{i}"));
            if join {
                let earlier = self.vars[self.rng.gen_range(0..i)].clone();
                let own = match self.rng.gen_bool(0.25) {
                    true => self.atoms_from(&format!("$v{i}//*[@k = {earlier}//@k]")),
                    false => self.atoms_from(&format!("$v{i}")),
                };
                let outer = self.atoms_from(&earlier);
                terms.push(match self.rng.gen_bool(0.5) {
                    true => format!("{own} = {outer}"),
                    false => format!("{outer} = {own}"),
                });
            }
        }
        if self.rng.gen_bool(if terms.is_empty() { 0.7 } else { 0.4 }) {
            for _ in 0..1 + usize::from(self.rng.gen_bool(0.4)) {
                let at = self.rng.gen_range(0..terms.len() + 1);
                let cond = self.cond(0, false);
                terms.insert(at, cond);
            }
        }
        if !terms.is_empty() {
            src += &format!("where {} ", terms.join(" and "));
        }
        src + "return " + &self.template()
    }

    fn element(&mut self, depth: usize) -> String {
        let label = self.pick(&LABELS[..2]);
        let attr = match self.rng.gen_bool(0.6) {
            true => format!(r#" k="{}""#, self.pick(&VALUES)),
            false => String::new(),
        };
        let mut inner = String::new();
        for _ in 0..self.rng.gen_range(0..4usize) {
            if depth < 3 && self.rng.gen_bool(0.6) {
                inner += &self.element(depth + 1);
            } else {
                inner += self.pick(&VALUES);
            }
        }
        format!("<{label}{attr}>{inner}</{label}>")
    }

    fn tree(&mut self) -> Tree {
        let kids: String = (0..self.rng.gen_range(1..7usize))
            .map(|_| self.element(1))
            .collect();
        Tree::parse(&format!("<r>{kids}</r>")).unwrap()
    }

    fn forest(&mut self) -> Vec<Tree> {
        (0..self.rng.gen_range(0..6usize).min(3))
            .map(|_| self.tree())
            .collect()
    }
}

/// The evaluator and the reference agree: equal `Ok`/`Err`, and on `Ok`
/// the same trees in the same order. Returns how many.
fn assert_same(plan: &Plan, ctx: &Ctx<'_>, src: &reference::Src<'_>, what: &str) -> usize {
    let got = plan.eval_ctx(ctx);
    let got = got.map(|ts| ts.iter().map(Tree::serialize).collect::<Vec<_>>());
    match (got, reference::eval(plan, src)) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got, want, "{what}");
            want.len()
        }
        (Err(_), Err(_)) => 0,
        (got, want) => panic!("{what}: evaluator {got:?}, reference {want:?}"),
    }
}

/// The starts of `path` and of every path in its step predicates.
fn starts<'p>(path: &'p PathPlan, out: &mut Vec<&'p StartRef>) {
    out.push(&path.start);
    for pred in path.steps.iter().flat_map(|s| &s.preds) {
        pred_starts(pred, out);
    }
}

fn pred_starts<'p>(pred: &'p PredPlan, out: &mut Vec<&'p StartRef>) {
    match pred {
        PredPlan::And(a, b) | PredPlan::Or(a, b) => {
            pred_starts(a, out);
            pred_starts(b, out);
        }
        PredPlan::Not(c) => pred_starts(c, out),
        PredPlan::Cmp { lhs, rhs, .. } => {
            starts(lhs, out);
            if let OperandPlan::Path(p) = rhs {
                starts(p, out);
            }
        }
        PredPlan::Contains { path, .. }
        | PredPlan::CountCmp { path, .. }
        | PredPlan::Exists(path) => starts(path, out),
    }
}

/// Whether a `where` conjunct of `plan` is one the evaluator answers from
/// a join's index (`eval.rs`, "Evaluation order"): `A = B` with `A`
/// reading only the variable of a closed `for` and `B` only variables
/// bound before it, neither reading a source.
fn has_join(plan: &Plan) -> bool {
    let mut ops: Vec<&Op> = std::iter::successors(Some(&plan.ops), |op| op.input()).collect();
    ops.reverse();
    // The variables a path reads, or `None` if it reads a source.
    let vars = |p: &PathPlan| -> Option<Vec<VarId>> {
        let mut all = Vec::new();
        starts(p, &mut all);
        let mut vars = Vec::new();
        for start in all {
            match start {
                StartRef::Var(v) => vars.push(*v),
                StartRef::Source(_) => return None,
                StartRef::Context => {}
            }
        }
        Some(vars)
    };
    // Each loop's variable, in binding order, and whether it is a closed `for`.
    let loops: Vec<(VarId, bool)> = ops
        .iter()
        .filter_map(|op| match op {
            Op::ForEach { var, path, .. } => {
                let mut all = Vec::new();
                starts(path, &mut all);
                Some((*var, all.iter().all(|s| !matches!(s, StartRef::Var(_)))))
            }
            Op::LetBind { var, .. } => Some((*var, false)),
            _ => None,
        })
        .collect();
    let at = |v: VarId| loops.iter().position(|l| l.0 == v);
    let joins = |own: &PathPlan, outer: &PathPlan| match (vars(own), vars(outer)) {
        (Some(own), Some(outer)) if !own.is_empty() && !outer.is_empty() => {
            let v = own[0];
            own.iter().all(|w| *w == v)
                && loops[at(v).unwrap()].1
                && outer.iter().all(|w| at(*w) < at(v))
        }
        _ => false,
    };
    let mut conjuncts: Vec<&PredPlan> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Filter { pred, .. } => Some(pred),
            _ => None,
        })
        .collect();
    while let Some(c) = conjuncts.pop() {
        match c {
            PredPlan::And(a, b) => conjuncts.extend([&**a, &**b]),
            PredPlan::Cmp {
                lhs,
                op: CmpOp::Eq,
                rhs: OperandPlan::Path(rhs),
            } if joins(lhs, rhs) || joins(rhs, lhs) => return true,
            _ => {}
        }
    }
    false
}

/// Differential test of the evaluator against [`reference`] on seeded
/// random plans and forests — plain, with a parameter narrowed to its
/// latest arrivals, and with the document narrowed to one child of its
/// root (which the reference reads as a document holding that child
/// alone). A good share of the plans join a closed scan to an outer
/// variable, over numerals spelled more than one way.
#[test]
fn evaluator_equals_the_materialising_reference() {
    let mut g = PlanGen {
        rng: SplitMix64::new(0x5EED_0022),
        vars: Vec::new(),
    };
    let d = DocName::new("d");
    let (mut answering, mut joins, mut indexed) = (0, 0, 0);
    for case in 0..4_000 {
        let src = g.query();
        let plan = parse_plan(&src, 2).unwrap_or_else(|e| panic!("{src}: {e}"));
        indexed += usize::from(has_join(&plan));
        let inputs = [g.forest(), g.forest()];
        let docs: HashMap<DocName, Tree> = [(d.clone(), g.tree())].into();
        let what = format!("case {case}: {src}");
        let plain = reference::Src {
            inputs: &inputs,
            docs: &docs,
        };
        if assert_same(&plan, &Ctx::new(&inputs, &docs), &plain, &what) > 0 {
            answering += 1;
            joins += usize::from(plan.ops.chain_len() > 3);
        }

        let (param, trees) = (case % 2, g.forest());
        let mut narrowed = inputs.clone();
        narrowed[param] = trees.clone();
        let delta = Delta::Param {
            param,
            trees: &trees,
        };
        let by_param = reference::Src {
            inputs: &narrowed,
            docs: &docs,
        };
        let ctx = Ctx::with_delta(&inputs, &docs, delta);
        assert_same(&plan, &ctx, &by_param, &format!("{what} (param delta)"));

        let whole = &docs[&d];
        if let Some(&child) = whole.children(whole.root()).last() {
            let mut alone = Tree::new("r");
            let root = alone.root();
            alone.graft(root, whole, child).unwrap();
            let pruned: HashMap<DocName, Tree> = [(d.clone(), alone)].into();
            let by_child = reference::Src {
                inputs: &inputs,
                docs: &pruned,
            };
            let delta = Delta::DocChild { doc: &d, child };
            let ctx = Ctx::with_delta(&inputs, &docs, delta);
            assert_same(&plan, &ctx, &by_child, &format!("{what} (doc delta)"));
        }
    }
    // The generator is not vacuous: plans answer, multi-loop ones too, and
    // enough of them take a join's index.
    assert!(answering > 1_000 && joins > 400, "{answering} / {joins}");
    assert!(indexed >= 300, "{indexed} plans with a join");
}

/// A plan prints as the text the parser reads back to the same plan:
/// seeded random FLWR sources (the generator of the test above), each
/// parsed, printed and parsed again.
#[test]
fn printed_plans_parse_back() {
    let mut g = PlanGen {
        rng: SplitMix64::new(0x5EED_0041),
        vars: Vec::new(),
    };
    for case in 0..4_000 {
        let src = g.query();
        let plan = parse_plan(&src, 2).unwrap_or_else(|e| panic!("{src}: {e}"));
        let printed = plan.to_string();
        let back = parse_plan(&printed, plan.arity)
            .unwrap_or_else(|e| panic!("case {case}: {src}\n  printed as {printed}: {e}"));
        assert_eq!(back, plan, "case {case}: {src}\n  printed as {printed}");
    }
}

/// Rule (13)'s query rewrite: a query reading one forest `F` as both `$i`
/// and `$j` ≡ `share_param(i, j)` reading it once, as `$i`. Seeded plans
/// over three parameters (the generator's `$0`/`$1` moved to two of the
/// three places, so a parameter after `$j` is read and moves down), every
/// pair `i < j`, the other parameters random. The shared query's wire
/// form reads back to it.
#[test]
fn sharing_a_parameter_reads_the_forest_once() {
    let mut g = PlanGen {
        rng: SplitMix64::new(0x5EED_0013),
        vars: Vec::new(),
    };
    let docs: HashMap<DocName, Tree> = [(DocName::new("d"), g.tree())].into();
    let mut answering = 0;
    for case in 0..1_500 {
        // `$0`/`$1` to two distinct places of three, through a placeholder
        // so the two renamings do not chain.
        let to = [[0, 1], [0, 2], [1, 2], [2, 0], [1, 0], [2, 1]][case % 6];
        let src = g
            .query()
            .replace("$0", "$P")
            .replace("$1", &format!("${}", to[1]))
            .replace("$P", &format!("${}", to[0]));
        let q = Query::parse_with_arity("q", &src, 3).unwrap_or_else(|e| panic!("{src}: {e}"));
        let (i, j) = [(0, 1), (0, 2), (1, 2)][case / 6 % 3];
        let f = g.forest();
        let mut inputs = [g.forest(), g.forest(), g.forest()];
        inputs[i] = f.clone();
        inputs[j] = f;
        let mut once = inputs.to_vec();
        once.remove(j);
        let shared = q.share_param(i, j);
        assert_eq!(shared.arity(), 2, "case {case}: {src}");
        let xml = Tree::parse(shared.wire_xml()).unwrap();
        let back = Query::from_xml(&xml, xml.root()).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(back, shared, "case {case}: {src}");
        match (
            q.eval_with_docs(&inputs, &docs),
            shared.eval_with_docs(&once, &docs),
        ) {
            (Ok(want), Ok(got)) => {
                answering += usize::from(!want.is_empty());
                assert!(
                    forest_equiv(&want, &got),
                    "case {case} ({i}, {j}): {src}\n  {} vs {} trees",
                    want.len(),
                    got.len()
                );
            }
            (Err(_), Err(_)) => {}
            (want, got) => panic!("case {case} ({i}, {j}): {src}\n  {want:?}\n  {got:?}"),
        }
    }
    assert!(answering > 300, "{answering} cases answer");
}

/// A scan is resolved when its loop level is first reached, and not
/// before: an unresolved `doc()` in a loop no outer tuple reaches is no
/// error, in one that is reached it is — closed scan or not.
#[test]
fn unreached_scans_resolve_nothing() {
    let inputs = [
        vec![Tree::parse(r#"<r><a k="1"/></r>"#).unwrap()],
        Vec::new(),
    ];
    let docs = HashMap::new();
    let src = reference::Src {
        inputs: &inputs,
        docs: &docs,
    };
    for (query, ok) in [
        (
            r#"for $x in $0/zzz for $y in doc("nope")//a return {$y}"#,
            true,
        ),
        (
            r#"for $x in $1 for $y in doc("nope")/a[@k = $x/@k] return {$y}"#,
            true,
        ),
        (
            r#"for $x in $0/a for $y in doc("nope")//a return {$y}"#,
            false,
        ),
        (
            r#"for $x in $0/a for $y in doc("nope")/a[@k = $x/@k] return {$y}"#,
            false,
        ),
        (
            r#"for $x in $0/zzz let $y := doc("nope")//a return <r>{$y}</r>"#,
            true,
        ),
    ] {
        let plan = parse_plan(query, 2).unwrap();
        assert_eq!(plan.eval(&inputs, &docs).is_ok(), ok, "{query}");
        assert_same(&plan, &Ctx::new(&inputs, &docs), &src, query);
    }
}
