//! Plan rewrites: query decomposition and local optimizations.
//!
//! These are the query-level building blocks of the paper's §3.3:
//!
//! * [`decompose_selection`] produces the Example-1 shape `q ≡ q1(σ(q2))`:
//!   a *pushed* query (scan + all selections, returning copies of the
//!   matched elements) and an *outer* query (the construction, running
//!   over the transferred forest). `axml-core`'s rule R11/PushSelections
//!   combines it with query delegation (rule 10) to ship `σ(q2)` to the
//!   data's peer and only transfer the selected subset.
//! * [`rename_var`]/[`map_paths`] are the supporting plumbing.

use crate::plan::{
    AttrTplPlan, Op, OperandPlan, PathPlan, Plan, PlanTest, PredPlan, StartRef, TemplatePlan, VarId,
};

/// Apply `f` to every path in the plan (operator chain, nested predicates
/// and template).
pub fn map_paths(plan: &mut Plan, f: &mut impl FnMut(&mut PathPlan)) {
    fn in_path(p: &mut PathPlan, f: &mut impl FnMut(&mut PathPlan)) {
        // Visit nested predicate paths first, then the path itself.
        for s in &mut p.steps {
            for pred in &mut s.preds {
                in_pred(pred, f);
            }
        }
        f(p);
    }
    fn in_pred(pred: &mut PredPlan, f: &mut impl FnMut(&mut PathPlan)) {
        match pred {
            PredPlan::And(a, b) | PredPlan::Or(a, b) => {
                in_pred(a, f);
                in_pred(b, f);
            }
            PredPlan::Not(c) => in_pred(c, f),
            PredPlan::Cmp { lhs, rhs, .. } => {
                in_path(lhs, f);
                if let OperandPlan::Path(p) = rhs {
                    in_path(p, f);
                }
            }
            PredPlan::Contains { path, .. } => in_path(path, f),
            PredPlan::Exists(p) => in_path(p, f),
            PredPlan::CountCmp { path, .. } => in_path(path, f),
        }
    }
    fn in_tpl(t: &mut TemplatePlan, f: &mut impl FnMut(&mut PathPlan)) {
        match t {
            TemplatePlan::Element {
                attrs, children, ..
            } => {
                for (_, a) in attrs {
                    if let AttrTplPlan::Splice(p) = a {
                        in_path(p, f);
                    }
                }
                for c in children {
                    in_tpl(c, f);
                }
            }
            TemplatePlan::Text(_) => {}
            TemplatePlan::Splice(p) => in_path(p, f),
        }
    }
    fn in_op(op: &mut Op, f: &mut impl FnMut(&mut PathPlan)) {
        match op {
            Op::Unit => {}
            Op::ForEach { path, input, .. } | Op::LetBind { path, input, .. } => {
                in_path(path, f);
                in_op(input, f);
            }
            Op::Filter { pred, input } => {
                in_pred(pred, f);
                in_op(input, f);
            }
        }
    }
    in_op(&mut plan.ops, f);
    in_tpl(&mut plan.template, f);
}

/// Rename variable `from` to `to` in every path of the plan (start refs
/// only; binding sites are the caller's responsibility).
pub fn rename_var(plan: &mut Plan, from: VarId, to: VarId) {
    map_paths(plan, &mut |p| {
        if p.start == StartRef::Var(from) {
            p.start = StartRef::Var(to);
        }
    });
}

/// Decompose `q` into `(outer, pushed)` such that
/// `q(F) ≡ outer(pushed(F))` for every forest `F` — Example 1's
/// `q ≡ q1(σ(q2))` with the selection σ kept inside `pushed`.
///
/// Applies when the plan is a chain of `Filter`s over a **single**
/// `ForEach` that yields *element* nodes, and both the filters and the
/// template reference only that variable. Returns `None` otherwise.
///
/// * `pushed` — same scan and filters, returning a copy of each match;
///   same arity as `q`.
/// * `outer` — unary: iterates the forest produced by `pushed` and runs
///   the original construction on each tree.
pub fn decompose_selection(q: &Plan) -> Option<(Plan, Plan)> {
    // Walk the chain: Filters* over one ForEach over Unit.
    let mut filters: Vec<&PredPlan> = Vec::new();
    let mut cur = &q.ops;
    let (var, path) = loop {
        match cur {
            Op::Filter { pred, input } => {
                filters.push(pred);
                cur = input;
            }
            Op::ForEach { var, path, input } => {
                if !matches!(**input, Op::Unit) {
                    return None; // more than one binding clause
                }
                break (*var, path);
            }
            _ => return None,
        }
    };
    // The scan must produce element nodes (atoms don't survive the copy
    // round-trip with identical shape).
    match path.steps.last().map(|s| &s.test) {
        None | Some(PlanTest::Label(_)) | Some(PlanTest::Wildcard) => {}
        Some(PlanTest::Text) | Some(PlanTest::Attr(_)) => return None,
    }
    // Vacuous decompositions would loop. A query whose template is a bare
    // copy of the scanned variable decomposes into itself plus an identity
    // outer; one with no filters and no steps is already an "outer".
    if q.template == TemplatePlan::Splice(PathPlan::var(var))
        || (filters.is_empty() && path.steps.is_empty())
    {
        return None;
    }
    // Filters and template must depend only on `var` (no params/docs).
    let mut clean = true;
    let mut check = |p: &PathPlan| {
        clean &= matches!(p.start, StartRef::Var(v) if v == var) || p.start == StartRef::Context;
    };
    for pred in &filters {
        pred.visit_paths(&mut check);
    }
    q.template.visit_paths(&mut check);
    if !clean {
        return None;
    }

    // pushed: original scan + filters, template = copy of the match.
    let mut ops = Op::ForEach {
        var,
        path: path.clone(),
        input: Box::new(Op::Unit),
    };
    for pred in filters.iter().rev() {
        ops = Op::Filter {
            pred: (*pred).clone(),
            input: Box::new(ops),
        };
    }
    let pushed = Plan {
        arity: q.arity,
        n_vars: q.n_vars,
        ops,
        template: TemplatePlan::Splice(PathPlan::var(var)),
    };

    // outer: iterate the transferred forest, construct.
    let mut outer = Plan {
        arity: 1,
        n_vars: 1,
        ops: Op::ForEach {
            var: 0,
            path: PathPlan::param(0),
            input: Box::new(Op::Unit),
        },
        template: q.template.clone(),
    };
    rename_var(&mut outer, var, 0);
    Some((outer, pushed))
}

/// Rebase the outer-level paths of `pred` that start at `var` onto the
/// context item.
pub(crate) fn rewrite_pred_to_context(pred: &mut PredPlan, var: VarId) {
    let rewrite = &mut |p: &mut PathPlan| {
        if p.start == StartRef::Var(var) {
            p.start = StartRef::Context;
        }
    };
    fn go(pred: &mut PredPlan, f: &mut impl FnMut(&mut PathPlan)) {
        match pred {
            PredPlan::And(a, b) | PredPlan::Or(a, b) => {
                go(a, f);
                go(b, f);
            }
            PredPlan::Not(c) => go(c, f),
            PredPlan::Cmp { lhs, rhs, .. } => {
                f(lhs);
                if let OperandPlan::Path(p) = rhs {
                    f(p);
                }
            }
            PredPlan::Contains { path, .. } => f(path),
            PredPlan::Exists(p) => f(p),
            PredPlan::CountCmp { path, .. } => f(path),
        }
    }
    go(pred, rewrite);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::NoDocs;
    use crate::parser::parse_plan;
    use axml_xml::equiv::forest_equiv;
    use axml_xml::tree::Tree;

    fn plan(src: &str) -> Plan {
        parse_plan(src, 1).unwrap()
    }

    fn catalog() -> Tree {
        Tree::parse(
            r#"<catalog>
                 <pkg name="vim"><size>4000</size></pkg>
                 <pkg name="gcc"><size>90000</size></pkg>
                 <pkg name="vi"><size>100</size></pkg>
               </catalog>"#,
        )
        .unwrap()
    }

    #[test]
    fn decompose_preserves_semantics() {
        let q = plan(
            r#"for $p in $0//pkg where $p/size/text() > 1000
               return <big name="{$p/@name}">{$p/size}</big>"#,
        );
        let (outer, pushed) = decompose_selection(&q).expect("should decompose");
        let input = vec![catalog()];
        let direct = q.eval(std::slice::from_ref(&input), &NoDocs).unwrap();
        let shipped = pushed.eval(&[input], &NoDocs).unwrap();
        let composed = outer.eval(std::slice::from_ref(&shipped), &NoDocs).unwrap();
        assert!(forest_equiv(&direct, &composed));
        // and the pushed result is the smaller selected subset
        assert_eq!(shipped.len(), 2);
    }

    #[test]
    fn decompose_rejects_joins() {
        let q = plan(r#"for $a in $0/x for $b in $0/y return <r>{$a}{$b}</r>"#);
        assert!(decompose_selection(&q).is_none());
    }

    #[test]
    fn decompose_rejects_atom_scans() {
        let q = plan(r#"for $a in $0//pkg/@name return <r>{$a}</r>"#);
        assert!(decompose_selection(&q).is_none());
    }

    #[test]
    fn decompose_rejects_param_in_filter() {
        let q = plan(r#"for $a in $0/x where $1/flag/text() = "on" return {$a}"#);
        // filter mentions $1, not only the variable
        let q2 = Plan { arity: 2, ..q };
        assert!(decompose_selection(&q2).is_none());
    }

    #[test]
    fn decompose_bare_scan_without_filters() {
        let q = plan(r#"for $p in $0//pkg return <n>{$p/@name}</n>"#);
        let (outer, pushed) = decompose_selection(&q).expect("filter-free decompose");
        let input = vec![catalog()];
        let direct = q.eval(std::slice::from_ref(&input), &NoDocs).unwrap();
        let composed = outer
            .eval(&[pushed.eval(&[input], &NoDocs).unwrap()], &NoDocs)
            .unwrap();
        assert!(forest_equiv(&direct, &composed));
    }

    #[test]
    fn rename_var_rewrites_starts() {
        let mut q = plan(r#"for $p in $0//pkg return <n>{$p/@name}</n>"#);
        rename_var(&mut q, 0, 7);
        let mut seen = false;
        map_paths(&mut q, &mut |p| {
            if p.start == StartRef::Var(7) {
                seen = true;
            }
            assert_ne!(p.start, StartRef::Var(0));
        });
        assert!(seen);
    }
}
