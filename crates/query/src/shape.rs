//! What a plan's answers can hold, and what a query can see of a tree.
//!
//! Both are read off the plan. A declarative service's output type τout
//! (§2.1) is what its template can build, so nothing is declared beside
//! it; a query's footprint is what its steps test. Lazy activation (the
//! `lazy` module of `axml-core`) fires a call only where the two can meet.

use crate::plan::{Axis, Op, PathPlan, Plan, PlanStep, PlanTest, PredPlan, StartRef, TemplatePlan};
use axml_xml::Label;

/// A set of tree nodes, told apart by the step tests that can select them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Nodes {
    /// Any node at all: elements of every label, text and attributes.
    pub any: bool,
    /// Elements with one of these labels.
    pub labels: Vec<Label>,
    /// Text.
    pub text: bool,
    /// Attribute values.
    pub attrs: bool,
}

impl Nodes {
    const ANY: Nodes = Nodes::new(true, false, false);
    const TEXT: Nodes = Nodes::new(false, true, false);

    const fn new(any: bool, text: bool, attrs: bool) -> Nodes {
        let labels = Vec::new();
        Nodes {
            any,
            labels,
            text,
            attrs,
        }
    }

    fn label(l: Label, attrs: bool) -> Nodes {
        let labels = vec![l];
        Nodes {
            labels,
            attrs,
            ..Nodes::default()
        }
    }

    /// What a step test can select.
    fn of_test(t: &PlanTest) -> Nodes {
        match t {
            PlanTest::Label(l) => Nodes::label(*l, false),
            PlanTest::Wildcard => Nodes::ANY,
            PlanTest::Text => Nodes::TEXT,
            PlanTest::Attr(_) => Nodes::new(false, false, true),
        }
    }

    /// Can a node of `self` be one of `other`?
    fn meets(&self, other: &Nodes) -> bool {
        let empty = |n: &Nodes| *n == Nodes::default();
        (self.any && !empty(other))
            || (other.any && !empty(self))
            || self.labels.iter().any(|l| other.labels.contains(l))
            || (self.text && other.text)
            || (self.attrs && other.attrs)
    }

    /// Whether the set holds elements labelled `l`.
    pub fn has(&self, l: Label) -> bool {
        self.any || self.labels.contains(&l)
    }

    fn elements(&self) -> bool {
        self.any || !self.labels.is_empty()
    }

    fn add(&mut self, o: &Nodes) {
        self.any |= o.any;
        self.text |= o.text;
        self.attrs |= o.attrs;
        self.labels.extend_from_slice(&o.labels);
    }
}

/// What the answers of a plan can hold: τout, as far as it can be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answers {
    /// What an answer's root can be: a constructed element, a spliced
    /// path's node, or the `text` element an atom is answered in — whose
    /// `labels` then hold `text` and whose `text` is set.
    pub root: Nodes,
    /// What can occur strictly below an answer's root: the constructed
    /// children, or anything once an element's subtree is spliced.
    pub below: Nodes,
}

/// What a query can see of a tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// The tests of its steps, at any depth: `any` for a wildcard, `text`
    /// for `text()`, `attrs` for an `@a`.
    pub tests: Nodes,
    /// Whether some step takes the descendant axis.
    pub descendant: bool,
    /// The elements whose whole subtree the query reads: it copies them
    /// or takes their string value. Where an answer lands below one, the
    /// query sees it too.
    pub whole: Nodes,
}

impl Footprint {
    /// Can the query select a node of an answer with `a`'s contents,
    /// wherever it lands? Its wildcard can, and so can a test its root
    /// can pass, or, below a descendant step, one an inner node can pass.
    pub fn sees(&self, a: &Answers) -> bool {
        self.tests.any
            || a.root.meets(&self.tests)
            || (self.descendant && a.below.meets(&self.tests))
    }
}

/// A plan's `for`/`let` bindings, which resolve a path that starts at a
/// variable and takes no step.
struct Binds<'p>(Vec<(usize, &'p PathPlan)>);

impl Binds<'_> {
    /// What the items of `start` then `steps` can be; `context` stands for
    /// the context item of a predicate. An atom counts as text.
    fn items(&self, start: &StartRef, steps: &[PlanStep], context: &Nodes) -> Nodes {
        match (steps.last().map(|s| &s.test), start) {
            (Some(PlanTest::Text | PlanTest::Attr(_)), _) => Nodes::TEXT,
            (Some(t), _) => Nodes::of_test(t),
            (None, StartRef::Var(v)) => match self.0.iter().find(|(w, _)| w == v) {
                Some((_, p)) => self.items(&p.start, &p.steps, &Nodes::ANY),
                None => Nodes::ANY,
            },
            (None, StartRef::Context) => context.clone(),
            // a tree's root, whatever its label
            (None, StartRef::Source(_)) => Nodes::ANY,
        }
    }

    /// Add `p`'s steps, and those of the paths in their predicates, to
    /// `fp`; `read` says whether `p`'s items are read whole.
    fn path(&self, p: &PathPlan, context: &Nodes, read: bool, fp: &mut Footprint) {
        if read {
            fp.whole.add(&self.items(&p.start, &p.steps, context));
        }
        for (i, s) in p.steps.iter().enumerate() {
            fp.tests.add(&Nodes::of_test(&s.test));
            fp.descendant |= s.axis == Axis::Descendant;
            // a child `text()` is the string value of the node before it
            if s.axis == Axis::Child && s.test == PlanTest::Text {
                fp.whole.add(&self.items(&p.start, &p.steps[..i], context));
            }
            let candidate = self.items(&p.start, &p.steps[..=i], context);
            for pred in &s.preds {
                self.pred(pred, &candidate, fp);
            }
        }
    }

    /// Comparisons read their operands' string values; `exists` and
    /// `count` read none (under `and`/`or`/`not`, every path counts as
    /// read).
    fn pred(&self, pred: &PredPlan, context: &Nodes, fp: &mut Footprint) {
        let read = !matches!(pred, PredPlan::Exists(_) | PredPlan::CountCmp { .. });
        pred.paths(&mut |p| self.path(p, context, read, fp));
    }

    /// Add what template `t` can put at a node to `at`, and what below
    /// that node to `below`.
    fn put(&self, t: &TemplatePlan, at: &mut Nodes, below: &mut Nodes) {
        match t {
            TemplatePlan::Element {
                label,
                attrs,
                children,
            } => {
                at.add(&Nodes::label(*label, !attrs.is_empty()));
                let mut under = Nodes::default();
                children.iter().for_each(|c| self.put(c, below, &mut under));
                below.add(&under);
            }
            TemplatePlan::Text(_) => at.text = true,
            TemplatePlan::Splice(p) => {
                let mut it = self.items(&p.start, &p.steps, &Nodes::ANY);
                // a spliced element brings its attributes and its subtree
                it.attrs = it.elements();
                below.any |= it.elements();
                at.add(&it);
            }
        }
    }
}

impl Plan {
    fn binds(&self) -> Binds<'_> {
        let ops = std::iter::successors(Some(&self.ops), |op| op.input());
        Binds(
            ops.filter_map(|op| match op {
                Op::ForEach { var, path, .. } | Op::LetBind { var, path, .. } => Some((*var, path)),
                _ => None,
            })
            .collect(),
        )
    }

    /// What this plan's answers can hold (see [`Answers`]).
    pub fn answers(&self) -> Answers {
        let (mut root, mut below) = (Nodes::default(), Nodes::default());
        self.binds().put(&self.template, &mut root, &mut below);
        if root.text {
            // an atom is answered as a `text` element holding it
            root.add(&Nodes::label(Label::new("text"), false));
            below.text = true;
        }
        Answers { root, below }
    }

    /// What this plan, run as a query, can see of a tree (see
    /// [`Footprint`]).
    pub fn footprint(&self) -> Footprint {
        let binds = self.binds();
        let mut fp = Footprint::default();
        for (_, path) in &binds.0 {
            binds.path(path, &Nodes::ANY, false, &mut fp);
        }
        for op in std::iter::successors(Some(&self.ops), |op| op.input()) {
            if let Op::Filter { pred, .. } = op {
                binds.pred(pred, &Nodes::ANY, &mut fp);
            }
        }
        // every path of the template is spliced, so read whole
        (self.template).paths(&mut |p| binds.path(p, &Nodes::ANY, true, &mut fp));
        fp
    }
}

#[cfg(test)]
mod tests {
    use crate::Query;
    use axml_xml::Label;

    fn labels(ls: &[&str]) -> Vec<Label> {
        ls.iter().map(|&l| Label::new(l)).collect()
    }

    fn sorted(mut ls: Vec<Label>) -> Vec<Label> {
        ls.sort_by(|a, b| a.as_str().cmp(b.as_str()));
        ls.dedup();
        ls
    }

    fn answers(src: &str) -> super::Answers {
        Query::parse("s", src).unwrap().plan().answers()
    }

    fn footprint(src: &str) -> super::Footprint {
        Query::parse("q", src).unwrap().plan().footprint()
    }

    #[test]
    fn a_constructed_answer_holds_its_template() {
        let a = answers(
            r#"for $i in doc("src")/item return <news k="1"><stock>{$i/text()}</stock></news>"#,
        );
        assert_eq!(a.root.labels, labels(&["news"]));
        assert!(a.root.attrs && !a.root.any);
        assert_eq!(a.below.labels, labels(&["stock"]));
        assert!(a.below.text && !a.below.any && !a.below.attrs);
    }

    #[test]
    fn a_spliced_element_resolves_through_its_binding() {
        let a = answers(r#"for $i in doc("src")//item for $j in $i return <r>{$j}</r>"#);
        assert_eq!(a.root.labels, labels(&["r"]));
        assert!(a.below.any, "a spliced subtree can hold anything");
        let bare = answers(r#"doc("src")/item"#);
        assert_eq!(bare.root.labels, labels(&["item"]));
        assert!(bare.below.any);
    }

    #[test]
    fn an_atom_is_answered_in_a_text_element() {
        for src in [r#"doc("src")//item/text()"#, r#"doc("src")/item/@kind"#] {
            let a = answers(src);
            assert_eq!(a.root.labels, labels(&["text"]), "{src}");
            assert!(a.root.text && a.below.text && !a.below.elements(), "{src}");
        }
    }

    #[test]
    fn a_root_or_wildcard_splice_is_anything() {
        assert!(answers("for $x in $0 return {$x}").root.any);
        assert!(answers(r#"doc("src")/*"#).root.any);
    }

    #[test]
    fn footprint_names_tests_axes_and_whole_reads() {
        let fp = footprint(r#"for $x in $0//news/wire where $x/tag = "db" return <out>{$x}</out>"#);
        assert_eq!(sorted(fp.tests.labels), labels(&["news", "tag", "wire"]));
        assert!(fp.descendant && !fp.tests.any && !fp.tests.text && !fp.tests.attrs);
        // `$x` is copied whole, and `$x/tag` compared by string value
        assert_eq!(sorted(fp.whole.labels), labels(&["tag", "wire"]));
        let fp = footprint("$0/a/text()");
        assert!(!fp.descendant && fp.tests.text && fp.whole.has(Label::new("a")));
        assert!(!fp.whole.has(Label::new("b")));
        let fp = footprint(r#"$0/a[b/@k = "1"][text() = "x"]"#);
        assert!(fp.tests.attrs && fp.whole.has(Label::new("a")));
        assert!(footprint("$0").whole.any, "the whole document is read");
        assert!(footprint("$0//*").tests.any);
    }

    #[test]
    fn sees_reads_roots_and_descendants() {
        let news =
            answers(r#"for $i in doc("s")/i return <news><stock>{$i/text()}</stock></news>"#);
        assert!(footprint("$0//news").sees(&news));
        assert!(footprint("$0//stock").sees(&news));
        assert!(
            !footprint("$0/d/stock").sees(&news),
            "a child step cannot skip the root"
        );
        assert!(footprint("$0//text()").sees(&news));
        assert!(!footprint("$0//@k").sees(&news));
        assert!(footprint("$0/*").sees(&news));
    }
}
