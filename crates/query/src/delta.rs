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
//! trees. Two strategies are used:
//!
//! * **semi-naive** — when exactly one `ForEach` scans the touched
//!   parameter and nothing else references it, the new results are
//!   obtained by evaluating with that parameter bound to just the new
//!   tree: O(|delta|) instead of O(|state|);
//! * **difference** — otherwise (joins of a stream with itself, `let`
//!   over the stream, predicates reading the stream), results are the
//!   canonical-multiset difference `eval(state ∪ {t}) ∖ eval(state)`.
//!
//! Both agree with batch re-evaluation for monotone queries (property
//! tested); for non-monotone queries the continuous evaluator emits
//! additions only (AXML streams are append-only — answers are never
//! retracted, per §2.2's accumulate-as-siblings semantics).

use crate::error::QueryResult;
use crate::eval::{Ctx, DocResolver, Forest};
use crate::plan::{Op, Plan, SourceRef, StartRef};
use axml_xml::equiv::CanonMultiset;
use axml_xml::tree::Tree;

/// Strategy chosen for one input parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaStrategy {
    /// Evaluate with the parameter restricted to the new tree.
    SemiNaive,
    /// Full evaluation + canonical multiset difference.
    Difference,
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
            .map(|i| Self::pick_strategy(&plan, i))
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

    fn pick_strategy(plan: &Plan, param: usize) -> DeltaStrategy {
        // Semi-naive requires: exactly one ForEach whose path *starts* at
        // the parameter, and no other reference to the parameter anywhere
        // (other scans, let-binds, nested predicates, the template).
        let direct_scans = {
            let mut n = 0;
            let mut cur = Some(&plan.ops);
            while let Some(op) = cur {
                match op {
                    Op::ForEach { path, .. }
                        if path.start == StartRef::Source(SourceRef::Param(param)) =>
                    {
                        n += 1
                    }
                    Op::LetBind { path, .. }
                        if path.start == StartRef::Source(SourceRef::Param(param)) =>
                    {
                        // let over the stream is not decomposable per-tree
                        return DeltaStrategy::Difference;
                    }
                    _ => {}
                }
                cur = op.input();
            }
            n
        };
        if direct_scans != 1 {
            return DeltaStrategy::Difference;
        }
        // Count *all* references; the single scan accounts for exactly one.
        let mut refs = 0;
        plan.ops.for_each_path(&mut |p| {
            if p.references_param(param) {
                refs += 1;
            }
        });
        if refs != 1 || plan.template.references_param(param) {
            return DeltaStrategy::Difference;
        }
        DeltaStrategy::SemiNaive
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
                let ctx = Ctx::with_override(&self.state, self.docs, param, &delta);
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
    use crate::lower::lower;
    use crate::parser::parse_query;
    use axml_xml::equiv::forest_equiv;

    fn plan(src: &str, arity: usize) -> Plan {
        lower(&parse_query(src).unwrap(), arity).unwrap()
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
