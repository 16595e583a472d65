//! Continuous (incremental) query evaluation.
//!
//! The paper makes every service and query continuous (§2.2): inputs are
//! streams of trees accumulating under nodes, and definition (2) *"captures
//! the intuitive semantics of continuous incremental query evaluation:
//! eval@p(q) produces a result whenever the arrival of some new tree in the
//! input streams leads to creating some output"*.
//!
//! [`ContinuousEval`] implements exactly that contract: feed it one arrived
//! tree at a time with [`ContinuousEval::push`], get back the *new* result
//! trees. The engine's subscription pump (`axml-core`) does the same for a
//! document that `feed` appends to. Both ask [`pick_strategy`] which of
//! two strategies a source allows:
//!
//! * **semi-naive** — when exactly one `ForEach` scans the touched source
//!   and nothing else references it, the new results are obtained by
//!   evaluating with that source narrowed to just the new tree
//!   ([`Delta`]): O(|delta|) instead of O(|state|);
//! * **difference** — otherwise (joins of a stream with itself, `let`
//!   over the stream, predicates reading the stream), results are the
//!   canonical-multiset difference `eval(state ∪ {t}) ∖ eval(state)`.
//!
//! Both agree with batch re-evaluation for monotone queries (property
//! tested); for non-monotone queries the continuous evaluator emits
//! additions only (AXML streams are append-only — answers are never
//! retracted, per §2.2's accumulate-as-siblings semantics).

use crate::error::QueryResult;
use crate::eval::{Ctx, Delta, DocResolver, Forest};
use crate::plan::{Op, PathPlan, Plan, PlanTest, SourceRef, StartRef};
use axml_xml::equiv::CanonMultiset;
use axml_xml::tree::Tree;

/// Strategy chosen for one source of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaStrategy {
    /// Evaluate with the source narrowed to the new tree.
    SemiNaive,
    /// Full evaluation + canonical multiset difference.
    Difference,
}

/// May `plan` be evaluated over just what arrived on `source` — a tree
/// pushed onto a parameter's stream, or a child appended under a
/// document's root — to get exactly its new results?
///
/// The argument, stated once: streams are append-only and answers are
/// never retracted (the *positive* rewriting of "Verifying Recursive
/// Active Documents with Positive Data Tree Rewriting"), and both plan
/// axes navigate strictly downward. So when a single `ForEach` scans the
/// source and no other path anywhere in the plan — another scan, a `let`,
/// a predicate, the template — starts at it, the answer is a sum over the
/// scan's items, each term reading only its item's subtree and the other
/// sources, and every item an arrival adds lies inside the arrival.
///
/// A document adds two conditions. The scan's first step must select
/// elements: a leading `text()`/`@attr`, or no step at all, reads the
/// root's own value, which an append changes rather than extends. And the
/// scan must be the outermost loop, so the new results are a *suffix* of
/// the full answer: the engine promises the very trees, in the very
/// order, that re-evaluating in full and filtering would deliver.
pub fn pick_strategy(plan: &Plan, source: &SourceRef) -> DeltaStrategy {
    let reads = |p: &PathPlan| matches!(&p.start, StartRef::Source(s) if s == source);
    let mut references = 0;
    plan.visit_paths(&mut |p| references += usize::from(reads(p)));
    // Walking `input` goes from the innermost loop outwards.
    let chain = std::iter::successors(Some(&plan.ops), |op| op.input());
    let mut scan = None;
    let mut loops_around_scan = 0;
    for op in chain {
        match op {
            Op::ForEach { path, .. } if reads(path) => scan = Some(path),
            Op::ForEach { .. } if scan.is_some() => loops_around_scan += 1,
            _ => {}
        }
    }
    let sound = match (references, scan, source) {
        (1, Some(_), SourceRef::Param(_)) => true,
        (1, Some(scan), SourceRef::Doc(_)) => {
            let first = scan.steps.first().map(|s| &s.test);
            matches!(first, Some(PlanTest::Label(_) | PlanTest::Wildcard)) && loops_around_scan == 0
        }
        _ => false,
    };
    if sound {
        DeltaStrategy::SemiNaive
    } else {
        DeltaStrategy::Difference
    }
}

/// An incrementally-evaluated continuous query instance.
pub struct ContinuousEval<'d> {
    plan: Plan,
    docs: &'d dyn DocResolver,
    state: Vec<Forest>,
    strategies: Vec<DeltaStrategy>,
    /// Everything emitted so far (what the difference strategy
    /// subtracts).
    emitted: CanonMultiset,
}

impl<'d> ContinuousEval<'d> {
    /// Set up a continuous evaluation of `plan`.
    pub fn new(plan: Plan, docs: &'d dyn DocResolver) -> Self {
        let strategies = (0..plan.arity)
            .map(|i| pick_strategy(&plan, &SourceRef::Param(i)))
            .collect();
        let state = vec![Vec::new(); plan.arity];
        ContinuousEval {
            plan,
            docs,
            state,
            strategies,
            emitted: CanonMultiset::default(),
        }
    }

    /// The strategy used for a parameter.
    pub fn strategy(&self, param: usize) -> DeltaStrategy {
        self.strategies[param]
    }

    /// The accumulated state of one input stream.
    pub fn state(&self, param: usize) -> &[Tree] {
        &self.state[param]
    }

    /// A new tree arrived on input `param`; returns the new results.
    pub fn push(&mut self, param: usize, tree: Tree) -> QueryResult<Vec<Tree>> {
        assert!(param < self.plan.arity, "parameter out of range");
        let out = match self.strategies[param] {
            DeltaStrategy::SemiNaive => {
                let delta = [tree.clone()];
                let delta = Delta::Param {
                    param,
                    trees: &delta,
                };
                let ctx = Ctx::with_delta(&self.state, self.docs, delta);
                let out = self.plan.eval_ctx(&ctx)?;
                self.emitted.record(&out);
                out
            }
            DeltaStrategy::Difference => {
                self.state[param].push(tree.clone());
                let after = self.plan.eval(&self.state, self.docs)?;
                self.state[param].pop();
                self.emitted.admit(after)
            }
        };
        self.state[param].push(tree);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::NoDocs;
    use crate::parser::parse_plan;
    use axml_xml::equiv::forest_equiv;

    fn plan(src: &str, arity: usize) -> Plan {
        parse_plan(src, arity).unwrap()
    }

    fn pkg(name: &str, size: u32) -> Tree {
        Tree::parse(&format!(
            r#"<u><pkg name="{name}"><size>{size}</size></pkg></u>"#
        ))
        .unwrap()
    }

    #[test]
    fn semi_naive_selected_for_single_scan() {
        let p = plan(
            r#"for $p in $0//pkg where $p/size/text() > 1000 return {$p/@name}"#,
            1,
        );
        let c = ContinuousEval::new(p, &NoDocs);
        assert_eq!(c.strategy(0), DeltaStrategy::SemiNaive);
    }

    #[test]
    fn difference_selected_for_self_join() {
        let p = plan(
            r#"for $a in $0//pkg for $b in $0//pkg where $a/@name = $b/@name return <m/>"#,
            1,
        );
        let c = ContinuousEval::new(p, &NoDocs);
        assert_eq!(c.strategy(0), DeltaStrategy::Difference);
    }

    #[test]
    fn difference_selected_for_let() {
        let p = plan(
            "let $all := $0//pkg where exists($all) return <n>{$all}</n>",
            1,
        );
        let c = ContinuousEval::new(p, &NoDocs);
        assert_eq!(c.strategy(0), DeltaStrategy::Difference);
    }

    fn doc_strategy(src: &str) -> DeltaStrategy {
        pick_strategy(&plan(src, 1), &SourceRef::Doc("d".into()))
    }

    #[test]
    fn semi_naive_selected_for_a_single_document_scan() {
        for src in [
            r#"for $i in doc("d")/item where $i/@topic = "db" return {$i}"#,
            r#"for $p in doc("d")//pkg where $p/size/text() > 1000 return <big>{$p/@name}</big>"#,
            r#"doc("d")/item"#,
            r#"for $i in doc("d")/*[@k = $0/k/text()] return <hit>{$i/@k}</hit>"#,
            r#"for $i in doc("d")/item for $x in $0/x where $i/@k = $x/@k return {$i}"#,
        ] {
            assert_eq!(doc_strategy(src), DeltaStrategy::SemiNaive, "{src}");
        }
    }

    #[test]
    fn difference_selected_where_a_document_delta_is_unsound() {
        for (why, src) in [
            (
                "self-join",
                r#"for $a in doc("d")/item for $b in doc("d")/item where $a/@k = $b/@k return <m/>"#,
            ),
            (
                "let over the document",
                r#"let $all := doc("d")/item where exists($all) return <n>{$all}</n>"#,
            ),
            (
                "read again in a where clause",
                r#"for $i in doc("d")/item where count(doc("d")/item) < 3 return {$i}"#,
            ),
            (
                "read again in a step predicate",
                r#"for $i in doc("d")/item[@k = doc("d")/key/text()] return {$i}"#,
            ),
            (
                "read again in the template",
                r#"for $i in doc("d")/item return <r>{$i}{doc("d")/stamp}</r>"#,
            ),
            ("the bare document", r#"doc("d")"#),
            ("the root's own text", r#"doc("d")/text()"#),
            (
                "the root's own attribute",
                r#"for $a in doc("d")/@v return <v>{$a}</v>"#,
            ),
            (
                "only ever read in a predicate",
                r#"for $x in $0/x where exists(doc("d")/item) return {$x}"#,
            ),
            (
                "not the outermost loop",
                r#"for $x in $0/x for $i in doc("d")/item where $i/@k = $x/@k return {$i}"#,
            ),
        ] {
            assert_eq!(doc_strategy(src), DeltaStrategy::Difference, "{why}: {src}");
        }
        // Another document's scan is untouched by what `d` may do.
        assert_eq!(
            pick_strategy(
                &plan(r#"for $i in doc("d")/item return {$i}"#, 0),
                &SourceRef::Doc("other".into())
            ),
            DeltaStrategy::Difference
        );
    }

    #[test]
    fn document_delta_evaluates_the_appended_child_in_place() {
        use std::collections::HashMap;
        let mut doc =
            Tree::parse(r#"<d><item k="1">old</item><box><item k="2">deep</item></box></d>"#)
                .unwrap();
        let fed =
            Tree::parse(r#"<box><item k="3">new</item><box><item k="4">newer</item></box></box>"#)
                .unwrap();
        let root = doc.root();
        let child = doc.graft(root, &fed, fed.root()).unwrap();
        let docs: HashMap<_, _> = [("d".into(), doc)].into();
        let name = "d".into();
        let delta = Delta::DocChild { doc: &name, child };
        for (src, expect) in [
            (r#"for $i in doc("d")//item return {$i/@k}"#, vec!["3", "4"]),
            (r#"for $i in doc("d")/box/item return {$i/@k}"#, vec!["3"]),
            (
                r#"for $i in doc("d")//box[item/@k = "4"] return {$i/item/@k}"#,
                vec!["4"],
            ),
            (r#"for $i in doc("d")/item return {$i/@k}"#, vec![]),
            (r#"for $i in doc("d")/* return {$i/item/@k}"#, vec!["3"]),
        ] {
            let p = plan(src, 0);
            assert_eq!(doc_strategy(src), DeltaStrategy::SemiNaive, "{src}");
            let out = p.eval_ctx(&Ctx::with_delta(&[], &docs, delta)).unwrap();
            let got: Vec<String> = out.iter().map(|t| t.text(t.root())).collect();
            assert_eq!(got, expect, "{src}");
        }
        // A path the picker refuses is refused by the evaluator too.
        let p = plan(r#"doc("d")/text()"#, 0);
        assert!(p.eval_ctx(&Ctx::with_delta(&[], &docs, delta)).is_err());
    }

    #[test]
    fn incremental_matches_batch_single_scan() {
        let p = plan(
            r#"for $p in $0//pkg where $p/size/text() > 1000 return {$p/@name}"#,
            1,
        );
        let stream = [pkg("a", 10), pkg("b", 5000), pkg("c", 2000), pkg("d", 1)];
        let mut cont = ContinuousEval::new(p.clone(), &NoDocs);
        let mut all = Vec::new();
        for t in &stream {
            all.extend(cont.push(0, t.clone()).unwrap());
        }
        let batch = p.eval(&[stream.to_vec()], &NoDocs).unwrap();
        assert!(forest_equiv(&all, &batch));
        assert_eq!(cont.state(0).len(), 4);
    }

    #[test]
    fn incremental_matches_batch_self_join() {
        let p = plan(
            r#"for $a in $0//pkg for $b in $0//pkg where $a/size/text() < $b/size/text()
               return <lt a="{$a/@name}" b="{$b/@name}"/>"#,
            1,
        );
        let stream = [pkg("a", 10), pkg("b", 5000), pkg("c", 200)];
        let mut cont = ContinuousEval::new(p.clone(), &NoDocs);
        let mut all = Vec::new();
        for t in &stream {
            all.extend(cont.push(0, t.clone()).unwrap());
        }
        let batch = p.eval(&[stream.to_vec()], &NoDocs).unwrap();
        assert!(forest_equiv(&all, &batch));
    }

    #[test]
    fn two_stream_join_incremental() {
        let p = plan(
            r#"for $a in $0//pkg for $r in $1//price where $a/@name = $r/@pkg
               return <q n="{$a/@name}">{$r/text()}</q>"#,
            2,
        );
        let mut cont = ContinuousEval::new(p.clone(), &NoDocs);
        let mut all = Vec::new();
        let price = |n: &str, v: u32| {
            Tree::parse(&format!(r#"<ps><price pkg="{n}">{v}</price></ps>"#)).unwrap()
        };
        all.extend(cont.push(0, pkg("vim", 10)).unwrap());
        assert!(all.is_empty(), "no prices yet");
        all.extend(cont.push(1, price("vim", 42)).unwrap());
        assert_eq!(all.len(), 1);
        all.extend(cont.push(0, pkg("gcc", 20)).unwrap());
        all.extend(cont.push(1, price("gcc", 7)).unwrap());
        assert_eq!(all.len(), 2);
        let batch = p
            .eval(
                &[
                    vec![pkg("vim", 10), pkg("gcc", 20)],
                    vec![price("vim", 42), price("gcc", 7)],
                ],
                &NoDocs,
            )
            .unwrap();
        assert!(forest_equiv(&all, &batch));
    }

    #[test]
    fn duplicate_results_preserved_as_multiset() {
        // Each pushed tree yields an identical <hit/>; the difference
        // strategy must not swallow duplicates.
        let p = plan(
            r#"for $a in $0//pkg for $b in $0//pkg where $a/@name = $b/@name return <hit/>"#,
            1,
        );
        let mut cont = ContinuousEval::new(p, &NoDocs);
        assert_eq!(cont.strategy(0), DeltaStrategy::Difference);
        let a = cont.push(0, pkg("x", 1)).unwrap();
        assert_eq!(a.len(), 1);
        let b = cont.push(0, pkg("y", 1)).unwrap();
        assert_eq!(b.len(), 1, "second identical <hit/> must still appear");
    }
}
