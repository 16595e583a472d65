//! Lowering: surface AST → logical plan.
//!
//! Performs name resolution (`$x` → variable slots, `$N` → parameters,
//! relative predicate paths → [`StartRef::Context`]), checks variable
//! scoping and duplicate bindings, enforces that `@attr`/`text()` only
//! appear as final steps, and computes the query arity.

use crate::ast::{self, AttrTemplate, Clause, Cond, Operand, QueryBody, Template, REL_VAR};
use crate::error::{QueryError, QueryResult};
use crate::plan::{
    AttrTplPlan, Op, OperandPlan, PathPlan, Plan, PlanStep, PlanTest, PredPlan, SourceRef,
    StartRef, TemplatePlan,
};
use axml_xml::ids::DocName;
use axml_xml::Label;
use std::collections::HashMap;

/// Lower a parsed query body into a plan. `min_arity` lets callers force a
/// larger arity than the parameters actually referenced.
pub fn lower(body: &QueryBody, min_arity: usize) -> QueryResult<Plan> {
    let mut lw = Lower {
        vars: HashMap::new(),
        n_vars: 0,
        max_param: None,
    };
    let plan = match body {
        QueryBody::Bare(path) => {
            // `$0//pkg` desugars to `for $·bare· in $0//pkg return {$·bare·}`.
            let var = lw.fresh();
            let path = lw.path(path, false)?;
            Plan {
                arity: 0, // fixed below
                n_vars: lw.n_vars,
                ops: Op::ForEach {
                    var,
                    path,
                    input: Box::new(Op::Unit),
                },
                template: TemplatePlan::Splice(PathPlan::var(var)),
            }
        }
        QueryBody::Flwr { clauses, ret } => {
            let mut ops = Op::Unit;
            for clause in clauses {
                ops = match clause {
                    Clause::For { var, source } => {
                        let path = lw.path(source, false)?;
                        let slot = lw.bind(var)?;
                        Op::ForEach {
                            var: slot,
                            path,
                            input: Box::new(ops),
                        }
                    }
                    Clause::Let { var, path } => {
                        let path = lw.path(path, false)?;
                        let slot = lw.bind(var)?;
                        Op::LetBind {
                            var: slot,
                            path,
                            input: Box::new(ops),
                        }
                    }
                    Clause::Where(cond) => Op::Filter {
                        pred: lw.cond(cond, false)?,
                        input: Box::new(ops),
                    },
                };
            }
            let template = lw.template(ret)?;
            Plan {
                arity: 0,
                n_vars: lw.n_vars,
                ops,
                template,
            }
        }
    };
    let arity = lw.max_param.map(|m| m + 1).unwrap_or(0).max(min_arity);
    Ok(Plan { arity, ..plan })
}

struct Lower {
    vars: HashMap<String, usize>,
    n_vars: usize,
    max_param: Option<usize>,
}

impl Lower {
    fn fresh(&mut self) -> usize {
        let v = self.n_vars;
        self.n_vars += 1;
        v
    }

    fn bind(&mut self, name: &str) -> QueryResult<usize> {
        if self.vars.contains_key(name) {
            return Err(QueryError::DuplicateVariable(format!("${name}")));
        }
        let v = self.fresh();
        self.vars.insert(name.to_string(), v);
        Ok(v)
    }

    fn path(&mut self, p: &ast::Path, in_pred: bool) -> QueryResult<PathPlan> {
        let start = match &p.start {
            ast::PathStart::Param(i) => {
                self.max_param = Some(self.max_param.map_or(*i, |m| m.max(*i)));
                StartRef::Source(SourceRef::Param(*i))
            }
            ast::PathStart::Var(v) if v == REL_VAR => {
                if !in_pred {
                    return Err(QueryError::UnboundVariable(
                        "relative path outside a predicate".into(),
                    ));
                }
                StartRef::Context
            }
            ast::PathStart::Var(v) => match self.vars.get(v) {
                Some(&slot) => StartRef::Var(slot),
                None => return Err(QueryError::UnboundVariable(format!("${v}"))),
            },
            ast::PathStart::Doc(d) => StartRef::Source(SourceRef::Doc(DocName::new(d))),
        };
        let mut steps = Vec::with_capacity(p.steps.len());
        for (i, s) in p.steps.iter().enumerate() {
            let test = match &s.test {
                ast::NodeTest::Label(l) => PlanTest::Label(Label::new(l)),
                ast::NodeTest::Wildcard => PlanTest::Wildcard,
                ast::NodeTest::Text => PlanTest::Text,
                ast::NodeTest::Attr(a) => PlanTest::Attr(Label::new(a)),
            };
            let terminal = matches!(test, PlanTest::Text | PlanTest::Attr(_));
            if terminal && i + 1 != p.steps.len() {
                return Err(QueryError::NotApplicable(format!(
                    "`{}` must be the final step of a path",
                    s.test
                )));
            }
            if terminal && !s.preds.is_empty() {
                return Err(QueryError::NotApplicable(
                    "predicates are not allowed on `@attr`/`text()` steps".into(),
                ));
            }
            let preds = s
                .preds
                .iter()
                .map(|c| self.cond(c, true))
                .collect::<QueryResult<Vec<_>>>()?;
            steps.push(PlanStep {
                axis: s.axis,
                test,
                preds,
            });
        }
        Ok(PathPlan { start, steps })
    }

    fn cond(&mut self, c: &Cond, in_pred: bool) -> QueryResult<PredPlan> {
        Ok(match c {
            Cond::And(a, b) => PredPlan::And(
                Box::new(self.cond(a, in_pred)?),
                Box::new(self.cond(b, in_pred)?),
            ),
            Cond::Or(a, b) => PredPlan::Or(
                Box::new(self.cond(a, in_pred)?),
                Box::new(self.cond(b, in_pred)?),
            ),
            Cond::Not(x) => PredPlan::Not(Box::new(self.cond(x, in_pred)?)),
            Cond::Cmp { lhs, op, rhs } => PredPlan::Cmp {
                lhs: self.path(lhs, in_pred)?,
                op: *op,
                rhs: match rhs {
                    Operand::Literal(l) => OperandPlan::Literal(l.clone()),
                    Operand::Path(p) => OperandPlan::Path(self.path(p, in_pred)?),
                },
            },
            Cond::Contains { path, needle } => PredPlan::Contains {
                path: self.path(path, in_pred)?,
                needle: needle.clone(),
            },
            Cond::Exists(p) => PredPlan::Exists(self.path(p, in_pred)?),
            Cond::CountCmp { path, op, n } => PredPlan::CountCmp {
                path: self.path(path, in_pred)?,
                op: *op,
                n: *n,
            },
        })
    }

    fn template(&mut self, t: &Template) -> QueryResult<TemplatePlan> {
        Ok(match t {
            Template::Element {
                label,
                attrs,
                children,
            } => TemplatePlan::Element {
                label: Label::new(label),
                attrs: attrs
                    .iter()
                    .map(|(n, v)| {
                        Ok((
                            Label::new(n),
                            match v {
                                AttrTemplate::Literal(s) => AttrTplPlan::Literal(s.clone()),
                                AttrTemplate::Splice(p) => {
                                    AttrTplPlan::Splice(self.path(p, false)?)
                                }
                            },
                        ))
                    })
                    .collect::<QueryResult<Vec<_>>>()?,
                children: children
                    .iter()
                    .map(|c| self.template(c))
                    .collect::<QueryResult<Vec<_>>>()?,
            },
            Template::Text(s) => TemplatePlan::Text(s.clone()),
            Template::Splice(p) => TemplatePlan::Splice(self.path(p, false)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn lower_src(src: &str) -> QueryResult<Plan> {
        lower(&parse_query(src).unwrap(), 0)
    }

    #[test]
    fn lowers_flwr() {
        let p = lower_src(r#"for $x in $0//pkg where $x/@name = "vim" return {$x}"#).unwrap();
        assert_eq!(p.arity, 1);
        assert_eq!(p.n_vars, 1);
        assert!(matches!(p.ops, Op::Filter { .. }));
        assert_eq!(p.scans_of_param(0), 1);
    }

    #[test]
    fn lowers_bare_path() {
        let p = lower_src("$1//pkg").unwrap();
        assert_eq!(p.arity, 2, "arity covers $0 and $1");
        assert!(matches!(p.ops, Op::ForEach { .. }));
        assert!(matches!(p.template, TemplatePlan::Splice(_)));
    }

    #[test]
    fn min_arity_respected() {
        let p = lower(&parse_query("$0/a").unwrap(), 3).unwrap();
        assert_eq!(p.arity, 3);
    }

    #[test]
    fn unbound_variable_rejected() {
        let e = lower_src("for $x in $0 return {$y}").unwrap_err();
        assert!(matches!(e, QueryError::UnboundVariable(v) if v == "$y"));
    }

    #[test]
    fn duplicate_variable_rejected() {
        let e = lower_src("for $x in $0 for $x in $1 return {$x}").unwrap_err();
        assert!(matches!(e, QueryError::DuplicateVariable(_)));
    }

    #[test]
    fn scoping_is_sequential() {
        // $b defined after its use in $a's clause — rejected.
        let e = lower_src("for $a in $b/x for $b in $0 return {$a}").unwrap_err();
        assert!(matches!(e, QueryError::UnboundVariable(_)));
        // and the valid order works
        lower_src("for $b in $0 for $a in $b/x return {$a}").unwrap();
    }

    #[test]
    fn relative_path_only_in_predicates() {
        lower_src(r#"for $x in $0//pkg[version = "1"] return {$x}"#).unwrap();
        // Parser only produces REL_VAR paths inside predicates, so an
        // unbound plain name in `where` is an unbound variable.
        let e = lower_src(r#"for $x in $0 where $y/v = "1" return {$x}"#).unwrap_err();
        assert!(matches!(e, QueryError::UnboundVariable(_)));
    }

    #[test]
    fn terminal_step_enforced() {
        let e = lower_src("for $x in $0/@id/sub return {$x}").unwrap_err();
        assert!(matches!(e, QueryError::NotApplicable(_)));
        let e2 = lower_src("for $x in $0/text()/y return {$x}").unwrap_err();
        assert!(matches!(e2, QueryError::NotApplicable(_)));
    }

    #[test]
    fn doc_source_lowered() {
        let p = lower_src(r#"for $x in doc("cat")/pkg return {$x}"#).unwrap();
        assert_eq!(p.arity, 0);
        if let Op::ForEach { path, .. } = &p.ops {
            assert!(matches!(
                &path.start,
                StartRef::Source(SourceRef::Doc(d)) if d.as_str() == "cat"
            ));
        } else {
            panic!("expected ForEach");
        }
    }

    #[test]
    fn join_lowering() {
        let p =
            lower_src(r#"for $a in $0/x for $b in $1/y where $a/k = $b/k return <j>{$a}{$b}</j>"#)
                .unwrap();
        assert_eq!(p.arity, 2);
        assert_eq!(p.n_vars, 2);
        assert_eq!(p.ops.chain_len(), 4);
        if let Op::Filter { pred, .. } = &p.ops {
            let mut vars = pred.referenced_vars();
            vars.sort_unstable();
            assert_eq!(vars, vec![0, 1]);
        } else {
            panic!("expected Filter on top");
        }
    }

    #[test]
    fn let_lowering() {
        let p = lower_src("let $all := $0//pkg where exists($all) return <n>{$all}</n>").unwrap();
        let mut found_let = false;
        let mut cur = Some(&p.ops);
        while let Some(op) = cur {
            if matches!(op, Op::LetBind { .. }) {
                found_let = true;
            }
            cur = op.input();
        }
        assert!(found_let);
    }
}
