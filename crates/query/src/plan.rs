//! The logical algebra: query plans.
//!
//! A [`Plan`] is a chain of operators feeding a construction template:
//!
//! ```text
//! Construct(template)
//!   └─ Filter(pred)            (0..n of these, in any position)
//!        └─ ForEach($x ← path) (one per `for` clause)
//!             └─ Unit
//! ```
//!
//! Operators consume and produce *binding tuples* (assignments of variables
//! to nodes/atoms/sequences). `Unit` emits the single empty tuple; each
//! `ForEach` flat-maps a path over its input tuples; `Construct` turns each
//! surviving tuple into one (or more, for bare splices) result trees.
//!
//! Plans are plain data with structural equality — the rewrite rules of
//! [`crate::rewrite`] and the distributed optimizer of `axml-core`
//! manipulate them directly, DataFusion-style. A plan's `Display` is the
//! query text [`crate::parser::parse_plan`] reads back: what a query
//! ships as and how it prints, however the plan was made.

use axml_xml::ids::DocName;
use axml_xml::Label;
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// Index of a variable slot in the binding tuple.
pub type VarId = usize;

/// Navigation axis of a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// `/` — children.
    Child,
    /// `//` — descendants (excluding self).
    Descendant,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Surface token.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// An external input of the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceRef {
    /// The `i`-th query parameter (a forest).
    Param(usize),
    /// A named document, resolved at evaluation time.
    Doc(DocName),
}

/// Where a compiled path starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StartRef {
    /// An external source.
    Source(SourceRef),
    /// A bound variable.
    Var(VarId),
    /// The context node of the enclosing predicate.
    Context,
}

/// Compiled node test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanTest {
    /// Element with this label.
    Label(Label),
    /// Any element.
    Wildcard,
    /// String value (terminal).
    Text,
    /// Attribute value (terminal).
    Attr(Label),
}

/// One compiled path step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// Axis.
    pub axis: Axis,
    /// Test.
    pub test: PlanTest,
    /// Predicates (context = the candidate node).
    pub preds: Vec<PredPlan>,
}

/// A compiled path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathPlan {
    /// Start.
    pub start: StartRef,
    /// Steps.
    pub steps: Vec<PlanStep>,
}

impl PathPlan {
    /// A path that just references a variable.
    pub fn var(v: VarId) -> Self {
        PathPlan {
            start: StartRef::Var(v),
            steps: Vec::new(),
        }
    }

    /// A path that scans a parameter's forest roots.
    pub fn param(i: usize) -> Self {
        PathPlan {
            start: StartRef::Source(SourceRef::Param(i)),
            steps: Vec::new(),
        }
    }

    /// Visit this path, then every path nested (at any depth) in its step
    /// predicates.
    pub(crate) fn visit_paths(&self, f: &mut impl FnMut(&PathPlan)) {
        f(self);
        for s in &self.steps {
            for pred in &s.preds {
                pred.visit_paths(f);
            }
        }
    }
}

/// Compiled comparison operand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OperandPlan {
    /// Literal string.
    Literal(String),
    /// Path.
    Path(PathPlan),
}

/// Compiled boolean predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredPlan {
    /// Conjunction.
    And(Box<PredPlan>, Box<PredPlan>),
    /// Disjunction.
    Or(Box<PredPlan>, Box<PredPlan>),
    /// Negation.
    Not(Box<PredPlan>),
    /// Existential comparison.
    Cmp {
        /// Left path.
        lhs: PathPlan,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        rhs: OperandPlan,
    },
    /// Substring test.
    Contains {
        /// Haystack path.
        path: PathPlan,
        /// Needle.
        needle: String,
    },
    /// Non-emptiness test.
    Exists(PathPlan),
    /// Cardinality comparison: `count(path) op n`.
    CountCmp {
        /// Counted path.
        path: PathPlan,
        /// Operator.
        op: CmpOp,
        /// Bound.
        n: u64,
    },
}

impl PredPlan {
    /// Visit the predicate's own paths, not the ones nested in their steps.
    pub(crate) fn paths(&self, f: &mut impl FnMut(&PathPlan)) {
        match self {
            PredPlan::And(a, b) | PredPlan::Or(a, b) => {
                a.paths(f);
                b.paths(f);
            }
            PredPlan::Not(c) => c.paths(f),
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

    /// Visit every path of the predicate, at any depth.
    pub(crate) fn visit_paths(&self, f: &mut impl FnMut(&PathPlan)) {
        self.paths(&mut |p| p.visit_paths(f));
    }

    /// The top-level conjuncts of the predicate, left to right.
    pub(crate) fn conjuncts<'p>(&'p self, out: &mut Vec<&'p PredPlan>) {
        if let PredPlan::And(a, b) = self {
            a.conjuncts(out);
            b.conjuncts(out);
        } else {
            out.push(self);
        }
    }
}

/// A `visit_paths` visitor that lists in `vars`, in first-use order, the
/// variables the visited paths read — at any depth, so `$y` in
/// `$x/a[@k = $y/@k]` counts.
pub(crate) fn note_vars(vars: &mut Vec<VarId>) -> impl FnMut(&PathPlan) + '_ {
    move |p| match p.start {
        StartRef::Var(v) if !vars.contains(&v) => vars.push(v),
        _ => {}
    }
}

/// Compiled construction template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplatePlan {
    /// An element with attribute and child templates.
    Element {
        /// Label.
        label: Label,
        /// Attributes.
        attrs: Vec<(Label, AttrTplPlan)>,
        /// Children.
        children: Vec<TemplatePlan>,
    },
    /// Literal text, shared by every answer that copies it.
    Text(Arc<str>),
    /// Copy every node/atom the path yields.
    Splice(PathPlan),
}

impl TemplatePlan {
    pub(crate) fn paths(&self, f: &mut impl FnMut(&PathPlan)) {
        match self {
            TemplatePlan::Element {
                attrs, children, ..
            } => {
                for (_, a) in attrs {
                    if let AttrTplPlan::Splice(p) = a {
                        f(p);
                    }
                }
                for c in children {
                    c.paths(f);
                }
            }
            TemplatePlan::Text(_) => {}
            TemplatePlan::Splice(p) => f(p),
        }
    }

    /// Visit every path of the template, at any depth.
    pub(crate) fn visit_paths(&self, f: &mut impl FnMut(&PathPlan)) {
        self.paths(&mut |p| p.visit_paths(f));
    }
}

/// Compiled attribute template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrTplPlan {
    /// Literal value, shared by every answer that copies it.
    Literal(Arc<str>),
    /// Space-joined atomization of a path.
    Splice(PathPlan),
}

/// A plan operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Emits one empty binding tuple.
    Unit,
    /// Flat-maps `path` over input tuples, binding each match to `var`.
    ForEach {
        /// Bound variable slot.
        var: VarId,
        /// Source path.
        path: PathPlan,
        /// Upstream operator.
        input: Box<Op>,
    },
    /// Binds `var` to the whole match sequence of `path`.
    LetBind {
        /// Bound variable slot.
        var: VarId,
        /// Bound path.
        path: PathPlan,
        /// Upstream operator.
        input: Box<Op>,
    },
    /// Keeps tuples satisfying `pred`.
    Filter {
        /// The predicate.
        pred: PredPlan,
        /// Upstream operator.
        input: Box<Op>,
    },
}

impl Op {
    /// Upstream operator, if any.
    pub fn input(&self) -> Option<&Op> {
        match self {
            Op::Unit => None,
            Op::ForEach { input, .. } | Op::LetBind { input, .. } | Op::Filter { input, .. } => {
                Some(input)
            }
        }
    }

    /// Depth of the operator chain (Unit = 1).
    pub fn chain_len(&self) -> usize {
        1 + self.input().map_or(0, Op::chain_len)
    }
}

/// A complete compiled query plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Number of input parameters (`$0 … $arity-1`).
    pub arity: usize,
    /// Number of variable slots used by the operator chain.
    pub n_vars: usize,
    /// The binding-producing chain.
    pub ops: Op,
    /// The output template.
    pub template: TemplatePlan,
}

impl Plan {
    /// How many `ForEach`/`LetBind` operators scan parameter `i` directly
    /// (their path *starts* at the parameter).
    pub fn scans_of_param(&self, i: usize) -> usize {
        let mut n = 0;
        let mut cur = Some(&self.ops);
        while let Some(op) = cur {
            if let Op::ForEach { path, .. } | Op::LetBind { path, .. } = op {
                if path.start == StartRef::Source(SourceRef::Param(i)) {
                    n += 1;
                }
            }
            cur = op.input();
        }
        n
    }

    /// Visit every path of the plan, at any depth: the operator chain
    /// from the top down (each path before the ones nested in its step
    /// predicates), then the template.
    pub fn visit_paths(&self, f: &mut impl FnMut(&PathPlan)) {
        let mut cur = Some(&self.ops);
        while let Some(op) = cur {
            match op {
                Op::Unit => {}
                Op::ForEach { path, .. } | Op::LetBind { path, .. } => path.visit_paths(f),
                Op::Filter { pred, .. } => pred.visit_paths(f),
            }
            cur = op.input();
        }
        self.template.visit_paths(f);
    }
}

// ------------------------------------------------------------------
// Display: the surface syntax `parser::parse_plan` reads back
// ------------------------------------------------------------------

/// Write variable slot `v` as the name the printer gives it: `$a` … `$z`,
/// then `$a1` … `$z1`, and so on.
fn write_var(f: &mut fmt::Formatter<'_>, v: VarId) -> fmt::Result {
    write!(f, "${}", char::from(b'a' + (v % 26) as u8))?;
    match v / 26 {
        0 => Ok(()),
        n => write!(f, "{n}"),
    }
}

/// Write `s` as a `"…"` literal, escaped the way the parser's one
/// string reader unescapes it.
fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Write a comparison literal: bare where the parser reads it back as a
/// number (`-`? digits, then `.` digits*), quoted otherwise.
fn write_literal(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    let unsigned = s.strip_prefix('-').unwrap_or(s);
    let (int, frac) = unsigned.split_once('.').unwrap_or((unsigned, ""));
    let digits = |t: &str| t.bytes().all(|b| b.is_ascii_digit());
    if !int.is_empty() && digits(int) && digits(frac) {
        f.write_str(s)
    } else {
        write_string(f, s)
    }
}

impl fmt::Display for StartRef {
    /// A context path starts at its first step, so it prints nothing.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StartRef::Source(SourceRef::Param(i)) => write!(f, "${i}"),
            StartRef::Source(SourceRef::Doc(d)) => {
                f.write_str("doc(")?;
                write_string(f, d.as_str())?;
                f.write_char(')')
            }
            StartRef::Var(v) => write_var(f, *v),
            StartRef::Context => Ok(()),
        }
    }
}

impl fmt::Display for PathPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.start)?;
        for (i, s) in self.steps.iter().enumerate() {
            match s.axis {
                // A relative path begins with its first test.
                Axis::Child if i == 0 && self.start == StartRef::Context => {}
                Axis::Child => f.write_char('/')?,
                Axis::Descendant => f.write_str("//")?,
            }
            match &s.test {
                PlanTest::Label(l) => write!(f, "{l}")?,
                PlanTest::Wildcard => f.write_char('*')?,
                PlanTest::Text => f.write_str("text()")?,
                PlanTest::Attr(a) => write!(f, "@{a}")?,
            }
            for p in &s.preds {
                write!(f, "[{p}]")?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for PredPlan {
    /// `and` binds tighter than `or` and both group to the left, so an
    /// operand is parenthesised only where reading it back would regroup.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let operand = |f: &mut fmt::Formatter<'_>, p: &PredPlan, paren: bool| match paren {
            true => write!(f, "({p})"),
            false => write!(f, "{p}"),
        };
        match self {
            PredPlan::And(a, b) => {
                operand(f, a, matches!(**a, PredPlan::Or(..)))?;
                f.write_str(" and ")?;
                operand(f, b, matches!(**b, PredPlan::And(..) | PredPlan::Or(..)))
            }
            PredPlan::Or(a, b) => {
                write!(f, "{a} or ")?;
                operand(f, b, matches!(**b, PredPlan::Or(..)))
            }
            PredPlan::Not(c) => write!(f, "not({c})"),
            PredPlan::Cmp { lhs, op, rhs } => {
                write!(f, "{lhs} {} ", op.symbol())?;
                match rhs {
                    OperandPlan::Literal(l) => write_literal(f, l),
                    OperandPlan::Path(p) => write!(f, "{p}"),
                }
            }
            PredPlan::Contains { path, needle } => {
                write!(f, "contains({path}, ")?;
                write_string(f, needle)?;
                f.write_char(')')
            }
            PredPlan::Exists(p) => write!(f, "exists({p})"),
            PredPlan::CountCmp { path, op, n } => write!(f, "count({path}) {} {n}", op.symbol()),
        }
    }
}

impl fmt::Display for TemplatePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplatePlan::Element {
                label,
                attrs,
                children,
            } => {
                write!(f, "<{label}")?;
                for (name, value) in attrs {
                    write!(f, " {name}=")?;
                    match value {
                        AttrTplPlan::Literal(s) => write_string(f, s)?,
                        AttrTplPlan::Splice(p) => write!(f, "\"{{{p}}}\"")?,
                    }
                }
                if children.is_empty() {
                    return f.write_str("/>");
                }
                f.write_char('>')?;
                for c in children {
                    write!(f, "{c}")?;
                }
                write!(f, "</{label}>")
            }
            TemplatePlan::Text(s) => {
                for c in s.chars() {
                    match c {
                        '{' => f.write_str("{{")?,
                        '}' => f.write_str("}}")?,
                        '<' => f.write_str("&lt;")?,
                        '&' => f.write_str("&amp;")?,
                        c => f.write_char(c)?,
                    }
                }
                Ok(())
            }
            TemplatePlan::Splice(p) => write!(f, "{{{p}}}"),
        }
    }
}

impl fmt::Display for Plan {
    /// The query text: the clauses from the bottom of the chain up, then
    /// `return` and the template — or, for one `for` whose template copies
    /// its variable, the bare path. `parse_plan(&plan.to_string(),
    /// plan.arity)` gives the plan back when its variable slots are
    /// numbered in binding order, as the parser numbers them.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Op::ForEach { var, path, input } = &self.ops {
            if **input == Op::Unit && self.template == TemplatePlan::Splice(PathPlan::var(*var)) {
                return write!(f, "{path}");
            }
        }
        let chain: Vec<&Op> = std::iter::successors(Some(&self.ops), |op| op.input()).collect();
        for op in chain.into_iter().rev() {
            match op {
                Op::Unit => {}
                Op::ForEach { var, path, .. } => {
                    f.write_str("for ")?;
                    write_var(f, *var)?;
                    write!(f, " in {path} ")?;
                }
                Op::LetBind { var, path, .. } => {
                    f.write_str("let ")?;
                    write_var(f, *var)?;
                    write!(f, " := {path} ")?;
                }
                Op::Filter { pred, .. } => write!(f, "where {pred} ")?,
            }
        }
        write!(f, "return {}", self.template)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> Plan {
        // for $a in $0//pkg where $a/@name = "vim" return <hit>{$a}</hit>
        let scan = Op::ForEach {
            var: 0,
            path: PathPlan {
                start: StartRef::Source(SourceRef::Param(0)),
                steps: vec![PlanStep {
                    axis: Axis::Descendant,
                    test: PlanTest::Label(Label::new("pkg")),
                    preds: vec![],
                }],
            },
            input: Box::new(Op::Unit),
        };
        let filt = Op::Filter {
            pred: PredPlan::Cmp {
                lhs: PathPlan {
                    start: StartRef::Var(0),
                    steps: vec![PlanStep {
                        axis: Axis::Child,
                        test: PlanTest::Attr(Label::new("name")),
                        preds: vec![],
                    }],
                },
                op: CmpOp::Eq,
                rhs: OperandPlan::Literal("vim".into()),
            },
            input: Box::new(scan),
        };
        Plan {
            arity: 1,
            n_vars: 1,
            ops: filt,
            template: TemplatePlan::Element {
                label: Label::new("hit"),
                attrs: vec![],
                children: vec![TemplatePlan::Splice(PathPlan::var(0))],
            },
        }
    }

    #[test]
    fn structure_queries() {
        let p = sample_plan();
        assert_eq!(p.scans_of_param(0), 1);
        assert_eq!(p.scans_of_param(1), 0);
        assert_eq!(p.ops.chain_len(), 3);
    }

    #[test]
    fn references() {
        let mut vars = Vec::new();
        sample_plan().visit_paths(&mut note_vars(&mut vars));
        assert_eq!(vars, vec![0]);
    }

    #[test]
    fn display_prints_the_query_text() {
        let p = sample_plan();
        let text = p.to_string();
        assert_eq!(
            text,
            r#"for $a in $0//pkg where $a/@name = "vim" return <hit>{$a}</hit>"#
        );
        assert_eq!(crate::parser::parse_plan(&text, p.arity).unwrap(), p);
    }

    #[test]
    fn plan_equality_is_structural() {
        assert_eq!(sample_plan(), sample_plan());
        let mut other = sample_plan();
        other.template = TemplatePlan::Text("x".into());
        assert_ne!(sample_plan(), other);
    }

    #[test]
    fn nested_variables_are_noted() {
        // $c/*[exists($f)][exists($3)]: reads slot 2 and, one level down, 5.
        let p = PathPlan {
            start: StartRef::Var(2),
            steps: vec![PlanStep {
                axis: Axis::Child,
                test: PlanTest::Wildcard,
                preds: vec![
                    PredPlan::Exists(PathPlan::var(5)),
                    PredPlan::Exists(PathPlan::param(3)),
                ],
            }],
        };
        let mut vars = Vec::new();
        p.visit_paths(&mut note_vars(&mut vars));
        assert_eq!(vars, vec![2, 5]);
    }
}
