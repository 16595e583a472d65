//! Hand-written recursive-descent parser for the query language: source
//! text in, [`Plan`] out.
//!
//! The grammar is a compact FLWR fragment:
//!
//! ```text
//! query    ::= flwr | path
//! flwr     ::= clause+ 'return' template
//! clause   ::= 'for' '$'name 'in' path
//!            | 'let' '$'name ':=' path
//!            | 'where' cond
//! path     ::= start step*
//! start    ::= '$'N          (parameter N)
//!            | '$'name       (bound variable)
//!            | 'doc' '(' string ')'
//! step     ::= '/' test pred* | '//' test pred*
//! test     ::= name | '*' | 'text()' | '@'name
//! pred     ::= '[' cond ']'
//! cond     ::= or-combination of comparisons, contains(), exists(),
//!              count(path) op N
//! template ::= '<'name attr*'>' (template | '{' path '}' | text)* '</'name'>'
//! attr     ::= name '=' ( '"{' path '}"' | string )
//! string   ::= '"' (char | '\"' | '\\' | '\n')* '"'
//! ```
//!
//! Names are resolved while reading: `$x` becomes the variable slot its
//! `for`/`let` clause bound (a clause's variable is in scope only *after*
//! the clause's own path, and may be bound once), `$N` raises the arity,
//! a path inside `[…]` may start at a test and is then relative to the
//! predicate's context node — `not`, `contains`, `count`, `exists` and
//! `doc` start a call only when `(` follows, so `[doc = "x"]` compares a
//! `<doc>` child — and `@attr`/`text()` end a path. A bare path
//! `$0//pkg` is shorthand for `for $v in $0//pkg return {$v}`.
//!
//! The parser is whitespace-lenient between tokens and reports syntax
//! errors with byte offsets; the first mistake in source order wins. A
//! [`Plan`]'s `Display` writes the text this parser reads back.

use crate::error::{QueryError, QueryResult};
use crate::plan::{
    AttrTplPlan, Axis, CmpOp, Op, OperandPlan, PathPlan, Plan, PlanStep, PlanTest, PredPlan,
    SourceRef, StartRef, TemplatePlan, VarId,
};
use axml_xml::ids::DocName;
use axml_xml::Label;
use std::collections::HashMap;

/// Parse query source text into a plan. `min_arity` lets callers force a
/// larger arity than the parameters actually referenced.
pub fn parse_plan(src: &str, min_arity: usize) -> QueryResult<Plan> {
    let mut p = P {
        src,
        pos: 0,
        vars: HashMap::new(),
        n_vars: 0,
        arity: min_arity,
        pred_depth: 0,
        depth: 0,
    };
    p.ws();
    let (ops, template) = if p.peek_kw("for") || p.peek_kw("let") || p.peek_kw("where") {
        p.parse_flwr()?
    } else {
        let var = p.fresh();
        let path = p.parse_path()?;
        let scan = Op::ForEach {
            var,
            path,
            input: Box::new(Op::Unit),
        };
        (scan, TemplatePlan::Splice(PathPlan::var(var)))
    };
    p.ws();
    if !p.done() {
        return Err(p.err("unexpected trailing input"));
    }
    Ok(Plan {
        arity: p.arity,
        n_vars: p.n_vars,
        ops,
        template,
    })
}

struct P<'a> {
    src: &'a str,
    pos: usize,
    /// Variables in scope, by name (without `$`).
    vars: HashMap<&'a str, VarId>,
    n_vars: usize,
    arity: usize,
    /// How many `[…]` enclose the current position.
    pred_depth: usize,
    /// How many conditions and template elements enclose the current
    /// position (see [`MAX_DEPTH`]).
    depth: usize,
}

/// How deep conditions (`(…)`, `not(…)`, `[…]`) and template elements
/// may nest, together. The parser recurses once per level, so without a
/// bound query text from another peer — `where ((((…` — overflows the
/// stack.
const MAX_DEPTH: usize = 128;

impl<'a> P<'a> {
    fn err(&self, msg: impl Into<String>) -> QueryError {
        QueryError::Syntax {
            msg: msg.into(),
            offset: self.pos,
        }
    }

    fn done(&self) -> bool {
        self.pos >= self.src.len()
    }

    /// Run `parse` one nesting level down, or refuse past [`MAX_DEPTH`].
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> QueryResult<T>) -> QueryResult<T> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> QueryResult<()> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    /// Does a keyword start here (followed by a non-name char)?
    fn peek_kw(&self, kw: &str) -> bool {
        let r = self.rest();
        r.starts_with(kw)
            && !r[kw.len()..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    /// Does a call of `name` start here — the name, then `(`? Without the
    /// `(`, a predicate reads `name` as the first step of a relative path
    /// (`$0//pkg[doc = "x"]`).
    fn peek_call(&self, name: &str) -> bool {
        self.peek_kw(name) && self.rest()[name.len()..].trim_start().starts_with('(')
    }

    /// Consume `name` if a call of it starts here.
    fn eat_call(&mut self, name: &str) -> bool {
        self.peek_call(name) && self.eat_kw(name)
    }

    fn parse_name(&mut self) -> QueryResult<&'a str> {
        let start = self.pos;
        match self.peek() {
            Some(c) if c.is_alphabetic() || c == '_' => {
                self.bump();
            }
            _ => return Err(self.err("expected a name")),
        }
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' || c == ':')
        {
            self.bump();
        }
        Ok(&self.src[start..self.pos])
    }

    /// Parse a name and intern it within the label budget: a fresh name
    /// past it is an error at the name's start.
    fn parse_label(&mut self) -> QueryResult<Label> {
        let offset = self.pos;
        let name = self.parse_name()?;
        Label::try_new(name).map_err(|full| QueryError::Syntax {
            msg: full.to_string(),
            offset,
        })
    }

    fn parse_string(&mut self) -> QueryResult<String> {
        self.expect("\"")?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('n') => out.push('\n'),
                    Some(c) => return Err(self.err(format!("bad escape `\\{c}`"))),
                    None => return Err(self.err("unterminated string")),
                },
                Some(c) => out.push(c),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    // --- scope ----------------------------------------------------------

    fn fresh(&mut self) -> VarId {
        let v = self.n_vars;
        self.n_vars += 1;
        v
    }

    fn bind(&mut self, name: &'a str) -> QueryResult<VarId> {
        if self.vars.contains_key(name) {
            return Err(QueryError::DuplicateVariable(format!("${name}")));
        }
        let v = self.fresh();
        self.vars.insert(name, v);
        Ok(v)
    }

    // --- FLWR ---------------------------------------------------------

    fn parse_flwr(&mut self) -> QueryResult<(Op, TemplatePlan)> {
        let mut ops = Op::Unit;
        loop {
            self.ws();
            if self.eat_kw("for") {
                self.ws();
                let name = self.parse_dollar_name()?;
                self.ws();
                if !self.eat_kw("in") {
                    return Err(self.err("expected `in`"));
                }
                self.ws();
                let path = self.parse_path()?;
                ops = Op::ForEach {
                    var: self.bind(name)?,
                    path,
                    input: Box::new(ops),
                };
            } else if self.eat_kw("let") {
                self.ws();
                let name = self.parse_dollar_name()?;
                self.ws();
                self.expect(":=")?;
                self.ws();
                let path = self.parse_path()?;
                ops = Op::LetBind {
                    var: self.bind(name)?,
                    path,
                    input: Box::new(ops),
                };
            } else if self.eat_kw("where") {
                self.ws();
                ops = Op::Filter {
                    pred: self.parse_cond()?,
                    input: Box::new(ops),
                };
            } else if self.eat_kw("return") {
                self.ws();
                return Ok((ops, self.parse_template()?));
            } else {
                return Err(self.err("expected `for`, `let`, `where` or `return`"));
            }
        }
    }

    fn parse_dollar_name(&mut self) -> QueryResult<&'a str> {
        self.expect("$")?;
        if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            return Err(self.err("`for`/`let` variables must be named, not numeric"));
        }
        self.parse_name()
    }

    // --- paths ----------------------------------------------------------

    fn parse_path(&mut self) -> QueryResult<PathPlan> {
        let start = if self.eat("$") {
            if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                let s = self.pos;
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.bump();
                }
                let n: usize = self.src[s..self.pos]
                    .parse()
                    .map_err(|_| self.err("bad parameter index"))?;
                let covers = n
                    .checked_add(1)
                    .ok_or_else(|| self.err("bad parameter index"))?;
                self.arity = self.arity.max(covers);
                StartRef::Source(SourceRef::Param(n))
            } else {
                let name = self.parse_name()?;
                match self.vars.get(name) {
                    Some(&slot) => StartRef::Var(slot),
                    None => return Err(QueryError::UnboundVariable(format!("${name}"))),
                }
            }
        } else if self.eat_kw("doc") {
            self.ws();
            self.expect("(")?;
            self.ws();
            let name = self.parse_string()?;
            self.ws();
            self.expect(")")?;
            StartRef::Source(SourceRef::Doc(DocName::new(name)))
        } else {
            return Err(self.err("expected `$var`, `$N` or `doc(\"…\")`"));
        };
        let mut steps = Vec::new();
        self.parse_steps(&mut steps)?;
        Ok(PathPlan { start, steps })
    }

    /// A path in condition position: absolute (`$…`, `doc(…)`) or, inside
    /// a predicate, relative — it starts with a test directly and is
    /// resolved against the predicate's context node.
    fn parse_cond_path(&mut self) -> QueryResult<PathPlan> {
        match self.peek() {
            Some('$') => self.parse_path(),
            Some(_) if self.peek_call("doc") => self.parse_path(),
            Some(c) if c.is_alphabetic() || c == '_' || c == '@' || c == '*' => {
                if self.pred_depth == 0 {
                    return Err(QueryError::UnboundVariable(
                        "relative path outside a predicate".into(),
                    ));
                }
                let mut steps = vec![self.parse_step(Axis::Child)?];
                self.parse_steps(&mut steps)?;
                Ok(PathPlan {
                    start: StartRef::Context,
                    steps,
                })
            }
            _ => Err(self.err("expected a path")),
        }
    }

    fn parse_steps(&mut self, steps: &mut Vec<PlanStep>) -> QueryResult<()> {
        loop {
            let axis = if self.eat("//") {
                Axis::Descendant
            } else if self.eat("/") {
                Axis::Child
            } else {
                return Ok(());
            };
            steps.push(self.parse_step(axis)?);
        }
    }

    /// A test and its predicates; `@attr`/`text()` take no predicates and
    /// no further step.
    fn parse_step(&mut self, axis: Axis) -> QueryResult<PlanStep> {
        let at = self.pos;
        let test = self.parse_test()?;
        if matches!(test, PlanTest::Text | PlanTest::Attr(_)) {
            if self.peek() == Some('[') {
                return Err(QueryError::NotApplicable(
                    "predicates are not allowed on `@attr`/`text()` steps".into(),
                ));
            }
            if self.peek() == Some('/') {
                return Err(QueryError::NotApplicable(format!(
                    "`{}` must be the final step of a path",
                    &self.src[at..self.pos]
                )));
            }
        }
        let mut preds = Vec::new();
        while self.eat("[") {
            self.pred_depth += 1;
            self.ws();
            preds.push(self.parse_cond()?);
            self.ws();
            self.expect("]")?;
            self.pred_depth -= 1;
        }
        Ok(PlanStep { axis, test, preds })
    }

    fn parse_test(&mut self) -> QueryResult<PlanTest> {
        if self.eat("@") {
            Ok(PlanTest::Attr(self.parse_label()?))
        } else if self.eat("*") {
            Ok(PlanTest::Wildcard)
        } else if self.eat("text()") {
            Ok(PlanTest::Text)
        } else {
            // Including an element actually named `text`.
            Ok(PlanTest::Label(self.parse_label()?))
        }
    }

    // --- conditions ------------------------------------------------------

    fn parse_cond(&mut self) -> QueryResult<PredPlan> {
        self.nested(|p| {
            let mut lhs = p.parse_and()?;
            loop {
                p.ws();
                if p.eat_kw("or") {
                    p.ws();
                    let rhs = p.parse_and()?;
                    lhs = PredPlan::Or(Box::new(lhs), Box::new(rhs));
                } else {
                    return Ok(lhs);
                }
            }
        })
    }

    fn parse_and(&mut self) -> QueryResult<PredPlan> {
        let mut lhs = self.parse_prim_cond()?;
        loop {
            self.ws();
            if self.eat_kw("and") {
                self.ws();
                let rhs = self.parse_prim_cond()?;
                lhs = PredPlan::And(Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn parse_prim_cond(&mut self) -> QueryResult<PredPlan> {
        self.ws();
        if self.eat_call("not") {
            self.ws();
            self.expect("(")?;
            let c = self.parse_cond()?;
            self.ws();
            self.expect(")")?;
            return Ok(PredPlan::Not(Box::new(c)));
        }
        if self.eat_call("contains") {
            self.ws();
            self.expect("(")?;
            self.ws();
            let path = self.parse_cond_path()?;
            self.ws();
            self.expect(",")?;
            self.ws();
            let needle = self.parse_string()?;
            self.ws();
            self.expect(")")?;
            return Ok(PredPlan::Contains { path, needle });
        }
        if self.eat_call("count") {
            self.ws();
            self.expect("(")?;
            self.ws();
            let path = self.parse_cond_path()?;
            self.ws();
            self.expect(")")?;
            self.ws();
            let op = self
                .parse_cmp_op()
                .ok_or_else(|| self.err("expected a comparison operator after count(…)"))?;
            self.ws();
            let n = self
                .parse_number()?
                .parse::<u64>()
                .map_err(|_| self.err("count(…) compares against a non-negative integer"))?;
            return Ok(PredPlan::CountCmp { path, op, n });
        }
        if self.eat_call("exists") {
            self.ws();
            self.expect("(")?;
            self.ws();
            let p = self.parse_cond_path()?;
            self.ws();
            self.expect(")")?;
            return Ok(PredPlan::Exists(p));
        }
        if self.eat("(") {
            let c = self.parse_cond()?;
            self.ws();
            self.expect(")")?;
            return Ok(c);
        }
        // A comparison.
        let lhs = self.parse_cond_path()?;
        self.ws();
        let op = self
            .parse_cmp_op()
            .ok_or_else(|| self.err("expected a comparison operator"))?;
        self.ws();
        let rhs = if self.peek() == Some('"') {
            OperandPlan::Literal(self.parse_string()?)
        } else if matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == '-') {
            OperandPlan::Literal(self.parse_number()?.to_string())
        } else {
            OperandPlan::Path(self.parse_cond_path()?)
        };
        Ok(PredPlan::Cmp { lhs, op, rhs })
    }

    fn parse_cmp_op(&mut self) -> Option<CmpOp> {
        // Two-character tokens first: `<=` is not `<` then `=`.
        [
            CmpOp::Ne,
            CmpOp::Le,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Lt,
            CmpOp::Gt,
        ]
        .into_iter()
        .find(|op| self.eat(op.symbol()))
    }

    fn parse_number(&mut self) -> QueryResult<&'a str> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.bump();
        }
        let mut saw = false;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            saw = true;
            self.bump();
        }
        if self.peek() == Some('.') {
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        if !saw {
            return Err(self.err("expected a number"));
        }
        Ok(&self.src[start..self.pos])
    }

    // --- templates -------------------------------------------------------

    fn parse_template(&mut self) -> QueryResult<TemplatePlan> {
        self.ws();
        match self.peek() {
            Some('<') => self.parse_template_element(),
            Some('{') => Ok(TemplatePlan::Splice(self.parse_splice()?)),
            _ => Err(self.err("expected `<element>` or `{path}` after `return`")),
        }
    }

    /// `{ path }`.
    fn parse_splice(&mut self) -> QueryResult<PathPlan> {
        self.expect("{")?;
        self.ws();
        let p = self.parse_path()?;
        self.ws();
        self.expect("}")?;
        Ok(p)
    }

    fn parse_template_element(&mut self) -> QueryResult<TemplatePlan> {
        self.expect("<")?;
        let label = self.parse_label()?;
        let mut attrs = Vec::new();
        loop {
            self.ws();
            match self.peek() {
                Some('/') => {
                    self.expect("/>")?;
                    return Ok(TemplatePlan::Element {
                        label,
                        attrs,
                        children: vec![],
                    });
                }
                Some('>') => {
                    self.bump();
                    break;
                }
                Some(c) if c.is_alphabetic() || c == '_' => {
                    let aname = self.parse_label()?;
                    self.ws();
                    self.expect("=")?;
                    self.ws();
                    attrs.push((aname, self.parse_attr_template()?));
                }
                _ => return Err(self.err("malformed template tag")),
            }
        }
        // children until </label>
        let mut children = Vec::new();
        loop {
            if self.eat("</") {
                let close = self.parse_name()?;
                if close != label.as_str() {
                    return Err(self.err(format!(
                        "mismatched template tag: `{label}` closed by `{close}`"
                    )));
                }
                self.ws();
                self.expect(">")?;
                return Ok(TemplatePlan::Element {
                    label,
                    attrs,
                    children,
                });
            }
            match self.peek() {
                Some('<') => children.push(self.nested(Self::parse_template_element)?),
                Some('{') if !self.rest().starts_with("{{") => {
                    children.push(TemplatePlan::Splice(self.parse_splice()?))
                }
                Some(_) => children.push(self.parse_template_text()?),
                None => return Err(self.err(format!("unterminated template `<{label}>`"))),
            }
        }
    }

    /// `"{path}"`, or a literal read like every other string.
    fn parse_attr_template(&mut self) -> QueryResult<AttrTplPlan> {
        if !self.rest().starts_with("\"{") {
            return Ok(AttrTplPlan::Literal(self.parse_string()?.into()));
        }
        self.expect("\"")?;
        let p = self.parse_splice()?;
        self.expect("\"")?;
        Ok(AttrTplPlan::Splice(p))
    }

    /// Literal text up to the next tag or splice. Consumes at least one
    /// character or fails — the children loop above relies on it.
    fn parse_template_text(&mut self) -> QueryResult<TemplatePlan> {
        let mut out = String::new();
        loop {
            match self.peek() {
                None | Some('<') => break,
                Some('{') if self.eat("{{") => out.push('{'),
                Some('{') => break,
                Some('}') if self.eat("}}") => out.push('}'),
                Some('}') => return Err(self.err("unescaped `}` in template text (write `}}`)")),
                Some('&') => {
                    if self.eat("&lt;") {
                        out.push('<');
                    } else if self.eat("&amp;") {
                        out.push('&');
                    } else if self.eat("&gt;") {
                        out.push('>');
                    } else {
                        return Err(self.err("bad entity in template text"));
                    }
                }
                Some(_) => {
                    let c = self.bump().expect("peeked");
                    out.push(c);
                }
            }
        }
        Ok(TemplatePlan::Text(out.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(src: &str) -> QueryResult<Plan> {
        parse_plan(src, 0)
    }

    /// The operator chain, bottom (first clause) first, `Unit` left out.
    fn clauses(p: &Plan) -> Vec<&Op> {
        let mut ops: Vec<&Op> = std::iter::successors(Some(&p.ops), |op| op.input()).collect();
        ops.pop();
        ops.reverse();
        ops
    }

    /// The path a bare-path query scans.
    fn bare(src: &str) -> PathPlan {
        match plan(src).unwrap().ops {
            Op::ForEach { path, .. } => path,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bare_path() {
        assert_eq!(bare("$0//pkg/@name").to_string(), "$0//pkg/@name");
    }

    #[test]
    fn doc_path() {
        let p = bare(r#"doc("catalog")/pkg"#);
        assert_eq!(
            p.start,
            StartRef::Source(SourceRef::Doc(DocName::new("catalog")))
        );
    }

    #[test]
    fn full_flwr() {
        let src = r#"for $p in $0//pkg where $p/@name = "vim" and exists($p/deps) return <hit v="{$p/version}">{$p/deps}</hit>"#;
        assert_eq!(clauses(&plan(src).unwrap()).len(), 2);
    }

    #[test]
    fn relative_paths_in_predicates() {
        let p = bare(r#"$0//pkg[version = "9.1"][@name != "x"]"#);
        let step = &p.steps[0];
        assert_eq!(step.preds.len(), 2);
        match &step.preds[0] {
            PredPlan::Cmp { lhs, .. } => assert_eq!(lhs.start, StartRef::Context),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn numbers_as_literals() {
        let q = plan(r#"for $x in $0//v where $x/text() >= 2.5 return {$x}"#).unwrap();
        match clauses(&q)[1] {
            Op::Filter {
                pred: PredPlan::Cmp { rhs, .. },
                ..
            } => assert_eq!(rhs, &OperandPlan::Literal("2.5".into())),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn template_text_and_escapes() {
        let q =
            plan(r#"for $x in $0/a return <out>literal {{braces}} &lt;tag&gt; &amp; {$x}</out>"#)
                .unwrap();
        match &q.template {
            TemplatePlan::Element { children, .. } => {
                assert!(matches!(&children[0], TemplatePlan::Text(t)
                    if &**t == "literal {braces} <tag> & "));
                assert_eq!(children[1], TemplatePlan::Splice(PathPlan::var(0)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn attribute_literals_are_strings() {
        let q = plan(r#"for $x in $0 return <a k="two\nlines \"q\" \\"/>"#).unwrap();
        assert!(matches!(&q.template, TemplatePlan::Element { attrs, .. }
            if attrs == &[(Label::new("k"), AttrTplPlan::Literal("two\nlines \"q\" \\".into()))]));
        assert!(plan(r#"for $x in $0 return <a k="\t"/>"#).is_err());
    }

    #[test]
    fn lone_closing_brace_in_template_text_is_an_error() {
        // Used to push empty text children until the allocator gave up.
        let e = plan("for $x in $0 return <a>}</a>").unwrap_err();
        assert!(matches!(e, QueryError::Syntax { offset: 23, .. }), "{e}");
        // `}}` stays the escape.
        let q = plan("for $x in $0 return <a>}}</a>").unwrap();
        assert!(matches!(&q.template, TemplatePlan::Element { children, .. }
            if children == &[TemplatePlan::Text("}".into())]));
    }

    #[test]
    fn text_step_vs_text_element() {
        assert_eq!(bare("$0/text()").steps[0].test, PlanTest::Text);
        assert_eq!(
            bare("$0/text").steps[0].test,
            PlanTest::Label(Label::new("text"))
        );
    }

    #[test]
    fn wildcard_and_attr_tests() {
        let p = bare("$0/*/@id");
        assert_eq!(p.steps[0].test, PlanTest::Wildcard);
        assert_eq!(p.steps[1].test, PlanTest::Attr(Label::new("id")));
    }

    #[test]
    fn errors() {
        assert!(plan("").is_err());
        assert!(plan("for $x in").is_err());
        assert!(plan("for $x in $0 return").is_err());
        assert!(plan("return <a/>").is_err());
        assert!(plan("for $1 in $0 return <a/>").is_err());
        assert!(plan(r#"for $x in $0 where $x = return <a/>"#).is_err());
        assert!(plan("for $x in $0 return <a></b>").is_err());
        assert!(plan("for $x in $0 return <a>").is_err());
        assert!(plan("$0//pkg extra").is_err());
        assert!(plan(r#"for $x in $0 where $x < "y"#).is_err());
        assert!(plan("doc(unquoted)").is_err());
        // `$N` counts toward an arity of N + 1, which must exist.
        assert!(plan(&format!("${}", usize::MAX)).is_err());
    }

    #[test]
    fn let_clause() {
        let q = plan(r#"let $all := $0//pkg where exists($all) return <n>{$all}</n>"#).unwrap();
        assert!(matches!(clauses(&q)[0], Op::LetBind { var: 0, .. }));
    }

    #[test]
    fn nested_parens_and_precedence() {
        // and binds tighter than or
        let q = plan(r#"for $x in $0 where $x/a = "1" or $x/b = "2" and $x/c = "3" return <r/>"#)
            .unwrap();
        match clauses(&q)[1] {
            Op::Filter {
                pred: PredPlan::Or(_, rhs),
                ..
            } => assert!(matches!(**rhs, PredPlan::And(_, _))),
            other => panic!("{other:?}"),
        }
    }

    // --- name resolution (the former lowering pass) ----------------------

    #[test]
    fn lowers_flwr() {
        let p = plan(r#"for $x in $0//pkg where $x/@name = "vim" return {$x}"#).unwrap();
        assert_eq!(p.arity, 1);
        assert_eq!(p.n_vars, 1);
        assert!(matches!(p.ops, Op::Filter { .. }));
        assert_eq!(p.scans_of_param(0), 1);
    }

    #[test]
    fn lowers_bare_path() {
        let p = plan("$1//pkg").unwrap();
        assert_eq!(p.arity, 2, "arity covers $0 and $1");
        assert!(matches!(p.ops, Op::ForEach { .. }));
        assert!(matches!(p.template, TemplatePlan::Splice(_)));
    }

    #[test]
    fn min_arity_respected() {
        let p = parse_plan("$0/a", 3).unwrap();
        assert_eq!(p.arity, 3);
    }

    #[test]
    fn unbound_variable_rejected() {
        let e = plan("for $x in $0 return {$y}").unwrap_err();
        assert!(matches!(e, QueryError::UnboundVariable(v) if v == "$y"));
    }

    #[test]
    fn duplicate_variable_rejected() {
        let e = plan("for $x in $0 for $x in $1 return {$x}").unwrap_err();
        assert!(matches!(e, QueryError::DuplicateVariable(_)));
    }

    #[test]
    fn scoping_is_sequential() {
        // $b defined after its use in $a's clause — rejected.
        let e = plan("for $a in $b/x for $b in $0 return {$a}").unwrap_err();
        assert!(matches!(e, QueryError::UnboundVariable(_)));
        // and the valid order works
        plan("for $b in $0 for $a in $b/x return {$a}").unwrap();
    }

    #[test]
    fn relative_path_only_in_predicates() {
        plan(r#"for $x in $0//pkg[version = "1"] return {$x}"#).unwrap();
        // A relative path is a predicate's privilege: in `where` a plain
        // name is rejected, and an unknown `$y` is an unbound variable.
        let e = plan(r#"for $x in $0 where v = "1" return {$x}"#).unwrap_err();
        assert!(matches!(e, QueryError::UnboundVariable(v) if v.starts_with("relative path")));
        let e = plan(r#"for $x in $0 where $y/v = "1" return {$x}"#).unwrap_err();
        assert!(matches!(e, QueryError::UnboundVariable(_)));
    }

    #[test]
    fn terminal_step_enforced() {
        let e = plan("for $x in $0/@id/sub return {$x}").unwrap_err();
        assert!(matches!(e, QueryError::NotApplicable(_)));
        let e2 = plan("for $x in $0/text()/y return {$x}").unwrap_err();
        assert!(matches!(e2, QueryError::NotApplicable(_)));
    }

    #[test]
    fn doc_source_lowered() {
        let p = plan(r#"for $x in doc("cat")/pkg return {$x}"#).unwrap();
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
        let p = plan(r#"for $a in $0/x for $b in $1/y where $a/k = $b/k return <j>{$a}{$b}</j>"#)
            .unwrap();
        assert_eq!(p.arity, 2);
        assert_eq!(p.n_vars, 2);
        assert_eq!(p.ops.chain_len(), 4);
        if let Op::Filter { pred, .. } = &p.ops {
            let mut vars = Vec::new();
            pred.visit_paths(&mut crate::plan::note_vars(&mut vars));
            assert_eq!(vars, vec![0, 1]);
        } else {
            panic!("expected Filter on top");
        }
    }

    #[test]
    fn let_lowering() {
        let p = plan("let $all := $0//pkg where exists($all) return <n>{$all}</n>").unwrap();
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

    /// A predicate's relative path may start at an element named like a
    /// function: `not`, `contains`, `count`, `exists` and `doc` call only
    /// when `(` follows. Each such query parses, selects the packages
    /// whose child says so, and prints text that parses back to it.
    #[test]
    fn function_names_start_relative_paths() {
        let catalog = axml_xml::tree::Tree::parse(
            r#"<catalog>
                 <pkg name="a"><doc>x</doc><not>1</not><contains>y</contains><count>3</count><exists>z</exists></pkg>
                 <pkg name="b"><doc>w</doc><not>2</not><contains>x</contains><count>1</count></pkg>
                 <pkg name="c"/>
               </catalog>"#,
        )
        .unwrap();
        let docs: HashMap<DocName, axml_xml::tree::Tree> = [(
            DocName::new("d"),
            axml_xml::tree::Tree::parse("<r><doc>x</doc></r>").unwrap(),
        )]
        .into();
        for (src, want) in [
            (r#"$0//pkg[doc = "x"]/@name"#, "a"),
            (r#"$0//pkg[not = 2]/@name"#, "b"),
            (r#"$0//pkg[contains = "y"]/@name"#, "a"),
            (r#"$0//pkg[count > 2]/@name"#, "a"),
            (r#"$0//pkg[exists = "z"]/@name"#, "a"),
            (r#"$0//pkg[not (doc = "x")]/@name"#, "bc"),
            (r#"$0//pkg[contains(contains, "x")]/@name"#, "b"),
            (r#"$0//pkg[count(count) >= 1]/@name"#, "ab"),
            (r#"$0//pkg[exists(exists)]/@name"#, "a"),
            (r#"$0//pkg[doc/text() = doc("d")/doc/text()]/@name"#, "a"),
        ] {
            let p = plan(src).unwrap_or_else(|e| panic!("{src}: {e}"));
            let got: String = p
                .eval(&[vec![catalog.clone()]], &docs)
                .unwrap()
                .iter()
                .map(|t| t.text(t.root()))
                .collect();
            assert_eq!(got, want, "{src}");
            let printed = p.to_string();
            assert_eq!(plan(&printed).unwrap(), p, "{src} printed as {printed}");
        }
    }
}
