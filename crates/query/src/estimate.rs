//! Cardinality and result-size estimation.
//!
//! The distributed optimizer of `axml-core` compares plans by how many
//! bytes each candidate ships between peers; for plans that ship *query
//! results* (delegated selections, pushed queries) it needs an estimate of
//! the result's cardinality and serialized size **before** running the
//! query. This module estimates from per-label statistics collected from
//! a forest once ([`ForestStats::collect`]): counts and sizes of every
//! element label and attribute name, a sample of their distinct values,
//! and a sorted sample of the values that read as numbers, so that a
//! range or equality predicate against a literal is priced by a binary
//! search over the data, and a constructed result is sized from its
//! template.
//!
//! An estimate is a [`View`]: how many trees, how many bytes, and — when
//! the trees are nodes of a forest whose statistics are known — which
//! nodes of which statistics, borrowed rather than copied. A query reading
//! a view prices exactly as it would reading the forest the view was drawn
//! from, so a value estimates the same however a plan spells it: the
//! selection `q(x)` as its decomposition `outer(pushed(x))`, a result
//! shipped to another peer as the result itself.
//!
//! The tests pin accuracy on seeded catalogs (the selectivity of a range
//! predicate within 2× of the true share, a constructed result within
//! 1.5× of its measured bytes) besides sanity (zero on empty input,
//! monotone in input size).

use crate::eval::numeral;
use crate::plan::{
    AttrTplPlan, CmpOp, Op, OperandPlan, PathPlan, Plan, PlanTest, PredPlan, SourceRef, StartRef,
    TemplatePlan, VarId,
};
use axml_xml::escape::{escaped_attr_len, escaped_text_len};
use axml_xml::ids::DocName;
use axml_xml::tree::{NodeKind, Tree};
use axml_xml::Label;
use std::collections::{HashMap, HashSet};

/// Default selectivity of an equality predicate when the number of
/// distinct values is unknown.
pub const SEL_EQ: f64 = 0.1;
/// Selectivity of `!=`.
pub const SEL_NE: f64 = 0.9;
/// Selectivity of a range comparison the data cannot price.
pub const SEL_RANGE: f64 = 1.0 / 3.0;
/// Selectivity of `contains`.
pub const SEL_CONTAINS: f64 = 0.25;
/// Selectivity of `exists` over data without statistics.
pub const SEL_EXISTS: f64 = 0.8;

/// Distinct string values sampled per label.
const DISTINCT_CAP: usize = 256;
/// Numbers kept per label: all of them while fewer than twice this
/// many, else an evenly spaced sample of at least this many.
const NUMBERS_CAP: usize = 512;
/// The bytes a result tree made of one atom adds to it: `<text>…</text>`.
const TEXT_TREE: f64 = 13.0;
/// The assumed size of an atom whose statistics are unknown.
const ATOM_BYTES: f64 = 16.0;

/// Statistics of one element label, or of one attribute name, over a
/// forest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LabelStats {
    /// Occurrences.
    pub count: usize,
    /// Serialized bytes: of the subtrees rooted at the label's elements,
    /// or of an attribute's ` name="value"`.
    pub total_bytes: usize,
    /// Bytes of the string values: an element's text, an attribute's
    /// value.
    pub text_bytes: usize,
    /// Number of distinct string values (capped sample).
    pub distinct_values: usize,
    /// How many of the string values read as numbers.
    pub numerals: usize,
    /// Those numbers, sorted: every one of them, or an evenly spaced
    /// sample once there are `2 × NUMBERS_CAP` or more.
    pub numbers: Vec<f64>,
}

impl LabelStats {
    fn per_occurrence(&self, total: usize) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        total as f64 / self.count as f64
    }

    /// The share of this label's values `v` for which `v op x` holds, by
    /// a binary search of the numeric sample; `None` when no value is a
    /// number. Values that are not numbers compare as strings, which a
    /// numeral never equals.
    fn numeric_selectivity(&self, op: CmpOp, x: f64) -> Option<f64> {
        let n = &self.numbers;
        if n.is_empty() || self.count == 0 {
            return None;
        }
        let below = n.partition_point(|v| *v < x);
        let upto = n.partition_point(|v| *v <= x);
        let hits = match op {
            CmpOp::Eq | CmpOp::Ne => upto - below,
            CmpOp::Lt => below,
            CmpOp::Le => upto,
            CmpOp::Gt => n.len() - upto,
            CmpOp::Ge => n.len() - below,
        };
        // A sample that missed the value does not show that it is absent.
        let hits = if hits == 0 && n.len() < self.numerals {
            0.5
        } else {
            hits as f64
        };
        let numeric = self.numerals as f64 / self.count as f64;
        let share = numeric * hits / n.len() as f64;
        Some(if op == CmpOp::Ne { 1.0 - share } else { share })
    }
}

/// Statistics of a forest, driving the estimator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ForestStats {
    /// Number of trees.
    pub n_trees: usize,
    /// Total element nodes.
    pub total_elements: usize,
    /// Total serialized bytes.
    pub total_bytes: usize,
    /// Per element label.
    pub labels: HashMap<Label, LabelStats>,
    /// Per attribute name.
    pub attrs: HashMap<Label, LabelStats>,
}

/// The values of one label or attribute name seen while collecting.
struct Values {
    distinct: HashSet<String>,
    numbers: Vec<f64>,
    /// Every `stride`-th number is kept.
    stride: usize,
}

impl Values {
    fn new() -> Self {
        Values {
            distinct: HashSet::new(),
            numbers: Vec::new(),
            stride: 1,
        }
    }

    fn note(&mut self, value: &str, stats: &mut LabelStats) {
        if self.distinct.len() < DISTINCT_CAP && !self.distinct.contains(value) {
            self.distinct.insert(value.to_owned());
        }
        let Some(x) = numeral(value) else { return };
        if stats.numerals.is_multiple_of(self.stride) {
            self.numbers.push(x);
            if self.numbers.len() == 2 * NUMBERS_CAP {
                // keep the multiples of twice the stride
                let mut i = 0;
                self.numbers.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
        }
        stats.numerals += 1;
    }

    fn finish(mut self, stats: &mut LabelStats) {
        stats.distinct_values = self.distinct.len();
        self.numbers.sort_by(f64::total_cmp);
        stats.numbers = self.numbers;
    }
}

/// Serialized bytes of one attribute: ` name="value"`.
fn attr_bytes(name: Label, value: &str) -> usize {
    name.as_str().len() + escaped_attr_len(value) + 4
}

/// Where the values of each label and attribute go while collecting:
/// `true` keys attributes.
type ValueMap = HashMap<(bool, Label), Values>;

impl ForestStats {
    /// Collect statistics over a forest — one bottom-up pass per tree.
    pub fn collect(forest: &[Tree]) -> Self {
        let mut stats = ForestStats {
            n_trees: forest.len(),
            ..ForestStats::default()
        };
        let mut values = ValueMap::new();
        // The text leaves seen so far, in document order: an element's
        // string value is the tail its subtree appended.
        let mut text = String::new();
        // Text bytes per finished subtree not yet claimed by a parent.
        let mut text_lens: Vec<usize> = Vec::new();
        for t in forest {
            text.clear();
            text_lens.clear();
            stats.total_bytes += t.serialized_sizes(t.root(), &mut |n, size| {
                let (label, attrs) = match t.node(n).kind() {
                    NodeKind::Text(s) => {
                        text.push_str(s);
                        text_lens.push(s.len());
                        return;
                    }
                    NodeKind::Element { label, attrs } => (*label, attrs),
                };
                let first_child = text_lens.len() - t.children(n).len();
                let own: usize = text_lens.drain(first_child..).sum();
                text_lens.push(own);
                stats.note_element(&mut values, label, size, &text[text.len() - own..]);
                for (name, v) in attrs {
                    stats.note_attr(&mut values, *name, v);
                }
            });
        }
        stats.finish(values);
        stats
    }

    fn note_element(&mut self, values: &mut ValueMap, label: Label, size: usize, value: &str) {
        self.total_elements += 1;
        let entry = self.labels.entry(label).or_default();
        entry.count += 1;
        entry.total_bytes += size;
        entry.text_bytes += value.len();
        values
            .entry((false, label))
            .or_insert_with(Values::new)
            .note(value, entry);
    }

    fn note_attr(&mut self, values: &mut ValueMap, name: Label, value: &str) {
        let entry = self.attrs.entry(name).or_default();
        entry.count += 1;
        entry.total_bytes += attr_bytes(name, value);
        entry.text_bytes += value.len();
        values
            .entry((true, name))
            .or_insert_with(Values::new)
            .note(value, entry);
    }

    fn finish(&mut self, values: ValueMap) {
        for ((attr, l), vals) in values {
            let map = if attr {
                &mut self.attrs
            } else {
                &mut self.labels
            };
            if let Some(e) = map.get_mut(&l) {
                vals.finish(e);
            }
        }
    }

    /// The pre-one-pass `collect`: re-measures every element's subtree
    /// and concatenates its text from scratch, in document order. Kept as
    /// the test oracle (the two agree wherever the numbers are not
    /// sampled, which depends on the order values are met in).
    #[cfg(test)]
    fn collect_reference(forest: &[Tree]) -> Self {
        let mut stats = ForestStats {
            n_trees: forest.len(),
            ..ForestStats::default()
        };
        let mut values = ValueMap::new();
        for t in forest {
            stats.total_bytes += t.serialized_size();
            for n in t.descendants_with_self(t.root()) {
                if let NodeKind::Element { label, attrs } = t.node(n).kind() {
                    let size = t.serialized_size_node(n);
                    stats.note_element(&mut values, *label, size, &t.text(n));
                    for (name, v) in attrs {
                        stats.note_attr(&mut values, *name, v);
                    }
                }
            }
        }
        stats.finish(values);
        stats
    }

    /// The statistics of `nodes`' label or attribute, if kept.
    fn of(&self, nodes: Nodes) -> Option<&LabelStats> {
        match nodes {
            Nodes::Label(l) | Nodes::Text(Some(l)) => self.labels.get(&l),
            Nodes::Attr(a) => self.attrs.get(&a),
            Nodes::Roots | Nodes::Element | Nodes::Text(None) => None,
        }
    }
}

fn eq_selectivity(values: Option<&LabelStats>) -> f64 {
    match values {
        Some(s) if s.distinct_values > 0 => 1.0 / s.distinct_values as f64,
        _ => SEL_EQ,
    }
}

/// Which nodes of a forest's statistics a set of items is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Nodes {
    /// The forest's own trees.
    Roots,
    /// The elements of one label.
    Label(Label),
    /// Any element.
    Element,
    /// The values of one attribute.
    Attr(Label),
    /// String values, of the elements of a label if known.
    Text(Option<Label>),
}

impl Nodes {
    fn is_element(self) -> bool {
        matches!(self, Nodes::Roots | Nodes::Label(_) | Nodes::Element)
    }
}

/// What the estimator knows of a forest: how many trees, how many bytes,
/// and — when its trees are nodes of a forest whose statistics are known
/// — which nodes of which statistics. A query reads a view as it would
/// read the forest it was drawn from, scaled to the view's cardinality;
/// the statistics are borrowed, never copied.
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    /// Expected number of trees.
    pub cardinality: f64,
    /// Expected serialized bytes of all of them.
    pub bytes: f64,
    /// The statistics the trees are drawn from, and which of its nodes
    /// they are; `None` when only the size is known.
    drawn: Option<(&'a ForestStats, Nodes)>,
}

impl<'a> View<'a> {
    /// A whole forest described by `stats`.
    pub fn of(stats: &'a ForestStats) -> Self {
        View {
            cardinality: stats.n_trees as f64,
            bytes: stats.total_bytes as f64,
            drawn: Some((stats, Nodes::Roots)),
        }
    }

    /// A forest of which only the size is known, counted as one tree.
    pub fn sized(bytes: f64) -> Self {
        View {
            cardinality: 1.0,
            bytes,
            drawn: None,
        }
    }

    /// The empty forest.
    pub fn empty() -> Self {
        View {
            cardinality: 0.0,
            bytes: 0.0,
            drawn: None,
        }
    }
}

/// Items a path yields: which nodes of which statistics, and how many
/// per binding tuple (or per item the path started from).
#[derive(Clone, Copy)]
struct Items<'a> {
    /// `None` for a source nothing is known of: it yields nothing.
    stats: Option<&'a ForestStats>,
    nodes: Nodes,
    /// The statistics of `nodes`' label or attribute.
    of: Option<&'a LabelStats>,
    count: f64,
}

impl<'a> Items<'a> {
    fn none() -> Self {
        Items {
            stats: None,
            nodes: Nodes::Roots,
            of: None,
            count: 0.0,
        }
    }

    fn drawn(stats: &'a ForestStats, nodes: Nodes, count: f64) -> Self {
        Items {
            stats: Some(stats),
            nodes,
            of: stats.of(nodes),
            count,
        }
    }

    /// One of these items.
    fn one(self) -> Self {
        Items { count: 1.0, ..self }
    }

    /// How many of `nodes` the statistics hold.
    fn occurrences(&self) -> f64 {
        match (self.stats, self.nodes) {
            (Some(s), Nodes::Roots) => s.n_trees as f64,
            (Some(s), Nodes::Element) => s.total_elements as f64,
            (_, Nodes::Label(_) | Nodes::Attr(_)) => self.of.map_or(0.0, |o| o.count as f64),
            _ => 0.0,
        }
    }

    /// One step further: the label's (or attribute's) occurrences per
    /// node the items stand on. An atom has no steps.
    fn step(self, test: &PlanTest) -> Self {
        let Some(stats) = self.stats else {
            return self;
        };
        let nodes = match (test, self.nodes) {
            (PlanTest::Label(l), _) => Nodes::Label(*l),
            (PlanTest::Wildcard, _) => Nodes::Element,
            (PlanTest::Attr(a), _) => Nodes::Attr(*a),
            // one string value per element, compared by its label's
            (PlanTest::Text, Nodes::Label(l)) => {
                return Items {
                    nodes: Nodes::Text(Some(l)),
                    ..self
                }
            }
            (PlanTest::Text, Nodes::Roots | Nodes::Element) => {
                return Items {
                    nodes: Nodes::Text(None),
                    of: None,
                    ..self
                }
            }
            (PlanTest::Text, _) => Nodes::Text(None),
        };
        let next = Items::drawn(stats, nodes, 0.0);
        let from = if self.nodes.is_element() {
            self.occurrences()
        } else {
            0.0
        };
        if from > 0.0 {
            Items {
                count: self.count * next.occurrences() / from,
                ..next
            }
        } else {
            next
        }
    }

    /// Average bytes of one item's atomization.
    fn atom_bytes(&self) -> f64 {
        self.of
            .map_or(ATOM_BYTES, |s| s.per_occurrence(s.text_bytes))
    }

    /// Bytes one item adds where it is spliced into an element.
    fn content_bytes(&self) -> f64 {
        let Some(stats) = self.stats else { return 0.0 };
        match self.nodes {
            Nodes::Roots if stats.n_trees > 0 => stats.total_bytes as f64 / stats.n_trees as f64,
            Nodes::Label(_) => self.of.map_or(0.0, |s| s.per_occurrence(s.total_bytes)),
            Nodes::Element if stats.total_elements > 0 => {
                let all: usize = stats.labels.values().map(|s| s.total_bytes).sum();
                all as f64 / stats.total_elements as f64
            }
            Nodes::Roots | Nodes::Element => 0.0,
            Nodes::Attr(_) | Nodes::Text(_) => self.atom_bytes(),
        }
    }

    /// Bytes of one item as a result tree of its own.
    fn tree_bytes(&self) -> f64 {
        if self.nodes.is_element() {
            self.content_bytes()
        } else {
            TEXT_TREE + self.content_bytes()
        }
    }
}

/// `p` holds for one of `k` values per item when each holds with `p`.
fn existential(p: f64, k: f64) -> f64 {
    if k <= 1.0 {
        p * k
    } else {
        1.0 - (1.0 - p).powf(k)
    }
}

/// Variables whose binding a walk keeps once it is found; a later one is
/// found again at each use.
const KEPT_BINDINGS: usize = 4;

/// One estimate's walk over a plan.
struct Walk<'p, 'a> {
    plan: &'p Plan,
    inputs: &'p [View<'a>],
    docs: &'p dyn Fn(&DocName) -> Option<&'a ForestStats>,
    /// What each of the first variables is bound to in one tuple.
    bound: [Option<Items<'a>>; KEPT_BINDINGS],
}

impl<'a> Walk<'_, 'a> {
    /// Binding tuples `op` produces, keeping what each variable is bound
    /// to. `None`: it reads a forest known only by its size.
    fn tuples(&mut self, op: &Op) -> Option<f64> {
        Some(match op {
            Op::Unit => 1.0,
            Op::ForEach { var, path, input } => {
                let tuples = self.tuples(input)?;
                let items = self.path(path, None)?;
                self.keep(*var, items.one());
                tuples * items.count
            }
            Op::LetBind { var, path, input } => {
                let tuples = self.tuples(input)?;
                let items = self.path(path, None)?;
                self.keep(*var, items);
                tuples
            }
            Op::Filter { pred, input } => self.tuples(input)? * self.selectivity(pred, None)?,
        })
    }

    fn keep(&mut self, v: VarId, items: Items<'a>) {
        if let Some(slot) = self.bound.get_mut(v) {
            *slot = Some(items);
        }
    }

    /// What `v` is bound to in one tuple.
    fn bound(&self, v: VarId) -> Option<Items<'a>> {
        if let Some(Some(items)) = self.bound.get(v) {
            return Some(*items);
        }
        let mut cur = Some(&self.plan.ops);
        while let Some(op) = cur {
            match op {
                Op::ForEach { var, path, .. } if *var == v => {
                    return Some(self.path(path, None)?.one())
                }
                Op::LetBind { var, path, .. } if *var == v => return self.path(path, None),
                _ => cur = op.input(),
            }
        }
        Some(Items::none())
    }

    /// The items `p` yields from `ctx` (the candidate node of a step
    /// predicate).
    fn path(&self, p: &PathPlan, ctx: Option<Items<'a>>) -> Option<Items<'a>> {
        let mut items = match &p.start {
            StartRef::Source(SourceRef::Param(i)) => match self.inputs.get(*i) {
                Some(view) => {
                    let (stats, nodes) = view.drawn?;
                    Items::drawn(stats, nodes, view.cardinality)
                }
                None => Items::none(),
            },
            StartRef::Source(SourceRef::Doc(d)) => match (self.docs)(d) {
                Some(s) => Items::drawn(s, Nodes::Roots, s.n_trees as f64),
                None => Items::none(),
            },
            StartRef::Var(v) => self.bound(*v)?,
            StartRef::Context => ctx.map_or_else(Items::none, Items::one),
        };
        for step in &p.steps {
            items = items.step(&step.test);
            let candidate = items.one();
            for pred in &step.preds {
                items.count *= self.selectivity(pred, Some(candidate))?;
            }
        }
        Some(items)
    }

    /// Selectivity of a predicate.
    fn selectivity(&self, pred: &PredPlan, ctx: Option<Items<'a>>) -> Option<f64> {
        Some(match pred {
            PredPlan::And(a, b) => self.selectivity(a, ctx)? * self.selectivity(b, ctx)?,
            PredPlan::Or(a, b) => {
                let (x, y) = (self.selectivity(a, ctx)?, self.selectivity(b, ctx)?);
                (x + y - x * y).min(1.0)
            }
            PredPlan::Not(c) => 1.0 - self.selectivity(c, ctx)?,
            PredPlan::Cmp { lhs, op, rhs } => {
                let l = self.path(lhs, ctx)?;
                let p = match rhs {
                    OperandPlan::Literal(s) => literal_selectivity(*op, s, l.of),
                    OperandPlan::Path(r) => join_selectivity(*op, l.of, self.path(r, ctx)?.of),
                };
                existential(p, l.count).min(1.0)
            }
            PredPlan::Contains { .. } => SEL_CONTAINS,
            PredPlan::Exists(p) => {
                let items = self.path(p, ctx)?;
                match items.stats {
                    Some(_) => items.count.min(1.0),
                    None => SEL_EXISTS,
                }
            }
            PredPlan::CountCmp { op, .. } => match op {
                CmpOp::Eq => SEL_EQ,
                CmpOp::Ne => SEL_NE,
                _ => SEL_RANGE,
            },
        })
    }

    /// Serialized bytes of the tree one tuple constructs from an element
    /// template: its literal tags and attributes, plus each splice's
    /// fan-out times the spliced items' average bytes.
    fn element_bytes(&self, template: &TemplatePlan) -> Option<f64> {
        let TemplatePlan::Element {
            label,
            attrs,
            children,
        } = template
        else {
            return Some(0.0);
        };
        let name = label.as_str().len() as f64;
        let mut bytes = 1.0 + name;
        for (a, v) in attrs {
            bytes += a.as_str().len() as f64 + 4.0;
            bytes += match v {
                AttrTplPlan::Literal(s) => escaped_attr_len(s) as f64,
                AttrTplPlan::Splice(p) => {
                    // the atoms, space-joined
                    let items = self.path(p, None)?;
                    items.count * items.atom_bytes() + (items.count - 1.0).max(0.0)
                }
            };
        }
        if children.is_empty() {
            return Some(bytes + 2.0);
        }
        bytes += 1.0 + 3.0 + name;
        for c in children {
            bytes += match c {
                TemplatePlan::Text(s) => escaped_text_len(s) as f64,
                TemplatePlan::Element { .. } => self.element_bytes(c)?,
                TemplatePlan::Splice(p) => {
                    let items = self.path(p, None)?;
                    items.count * items.content_bytes()
                }
            };
        }
        Some(bytes)
    }
}

/// Selectivity of `value op literal` over values described by `values`.
fn literal_selectivity(op: CmpOp, literal: &str, values: Option<&LabelStats>) -> f64 {
    let by_number = values.zip(numeral(literal));
    if let Some(p) = by_number.and_then(|(v, x)| v.numeric_selectivity(op, x)) {
        return p;
    }
    match op {
        CmpOp::Eq => eq_selectivity(values),
        CmpOp::Ne => SEL_NE,
        _ => SEL_RANGE,
    }
}

/// Selectivity of `l op r` for one pair of values (a join).
fn join_selectivity(op: CmpOp, l: Option<&LabelStats>, r: Option<&LabelStats>) -> f64 {
    match op {
        CmpOp::Eq => {
            let distinct = |v: Option<&LabelStats>| v.map_or(0, |s| s.distinct_values);
            match distinct(l).max(distinct(r)) {
                0 => (SEL_EQ * 2.0).min(1.0),
                d => 1.0 / d as f64,
            }
        }
        CmpOp::Ne => SEL_NE,
        _ => (SEL_RANGE * 2.0).min(1.0),
    }
}

/// Estimate the output of `plan` when parameter `i` is `inputs[i]` and
/// `doc("d")` reads the forest `docs(d)` describes. `None` when the plan
/// reads an input known only by its size.
pub fn estimate<'a>(
    plan: &Plan,
    inputs: &[View<'a>],
    docs: &dyn Fn(&DocName) -> Option<&'a ForestStats>,
) -> Option<View<'a>> {
    if plan.arity > 0 && inputs.iter().all(|v| v.cardinality == 0.0) {
        return Some(View::empty());
    }
    let mut walk = Walk {
        plan,
        inputs,
        docs,
        bound: [None; KEPT_BINDINGS],
    };
    let tuples = walk.tuples(&plan.ops)?;
    Some(match &plan.template {
        TemplatePlan::Splice(path) => {
            let items = walk.path(path, None)?;
            let cardinality = tuples * items.count;
            let drawn = items.stats.filter(|_| items.nodes.is_element());
            View {
                cardinality,
                bytes: cardinality * items.tree_bytes(),
                drawn: drawn.map(|s| (s, items.nodes)),
            }
        }
        TemplatePlan::Text(s) => View {
            cardinality: tuples,
            bytes: tuples * (TEXT_TREE + escaped_text_len(s) as f64),
            drawn: None,
        },
        element => View {
            cardinality: tuples,
            bytes: tuples * walk.element_bytes(element)?,
            drawn: None,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_plan;
    use crate::Query;
    use axml_prng::SplitMix64;

    fn forest(n: usize) -> Vec<Tree> {
        (0..n)
            .map(|i| {
                Tree::parse(&format!(
                    r#"<u><pkg name="p{i}"><size>{}</size></pkg></u>"#,
                    i * 100
                ))
                .unwrap()
            })
            .collect()
    }

    fn plan(src: &str) -> Plan {
        parse_plan(src, 1).unwrap()
    }

    fn no_docs<'a>(_: &DocName) -> Option<&'a ForestStats> {
        None
    }

    fn est(plan: &Plan, stats: &ForestStats) -> (f64, f64) {
        let view = estimate(plan, &[View::of(stats)], &no_docs).unwrap();
        (view.cardinality, view.bytes)
    }

    /// A catalog of `n` packages of which exactly `share` are above
    /// 100 000, shuffled.
    fn catalog(n: usize, share: f64, seed: u64) -> Tree {
        let mut rng = SplitMix64::new(seed);
        let mut big = vec![false; n];
        for b in big.iter_mut().take((n as f64 * share).round() as usize) {
            *b = true;
        }
        rng.shuffle(&mut big);
        let mut xml = String::from("<catalog>");
        for (i, big) in big.into_iter().enumerate() {
            let size = if big {
                100_001 + rng.gen_range(0..10_000u32)
            } else {
                10_000 + rng.gen_range(0..40_000u32)
            };
            xml.push_str(&format!(
                r#"<pkg name="pkg-{i:05}-{:x}"><size>{size}</size><desc>package {i}</desc></pkg>"#,
                rng.gen_range(0..4096u32)
            ));
        }
        xml.push_str("</catalog>");
        Tree::parse(&xml).unwrap()
    }

    #[test]
    fn stats_collection() {
        let f = forest(10);
        let s = ForestStats::collect(&f);
        assert_eq!(s.n_trees, 10);
        assert_eq!(s.labels[&Label::new("pkg")].count, 10);
        let pkg = &s.labels[&Label::new("pkg")];
        assert!(pkg.per_occurrence(pkg.total_bytes) > 10.0);
        assert!(!s.labels.contains_key(&Label::new("nothing")));
        // sizes are distinct → selectivity ~ 1/10
        let sizes = s.labels.get(&Label::new("size"));
        assert!((eq_selectivity(sizes) - 0.1).abs() < 1e-9);
        let size = &s.labels[&Label::new("size")];
        assert_eq!(size.numerals, 10);
        assert_eq!(
            size.numbers,
            (0..10).map(|i| i as f64 * 100.0).collect::<Vec<_>>()
        );
        let name = &s.attrs[&Label::new("name")];
        assert_eq!((name.count, name.distinct_values), (10, 10));
        assert_eq!(name.total_bytes, 10 * r#" name="p0""#.len());
        assert_eq!(name.text_bytes, 10 * "p0".len());
    }

    /// A random tree: nested elements over a small label alphabet (so
    /// labels nest inside themselves), attributes and text needing
    /// escapes, mixed content, empty elements.
    fn random_tree(rng: &mut SplitMix64, max_nodes: usize) -> Tree {
        const LABELS: [&str; 4] = ["a", "b", "item", "日本"];
        const TEXTS: [&str; 6] = ["", "x", "a<b", "q\"&é", "plain text", "-12.5"];
        let mut t = Tree::new(*rng.choose(&LABELS).unwrap());
        let mut open = vec![t.root()];
        for i in 0..rng.gen_range(0..max_nodes) {
            let parent = *rng.choose(&open).unwrap();
            if rng.gen_bool(0.4) {
                let text = if rng.gen_bool(0.5) {
                    format!("{}", rng.gen_range(0..2 * max_nodes))
                } else {
                    rng.choose(&TEXTS).unwrap().to_string()
                };
                t.add_text(parent, text);
            } else {
                let el = t.add_element(parent, *rng.choose(&LABELS).unwrap());
                if rng.gen_bool(0.3) {
                    t.set_attr(el, "k", format!("{i}\"<")).unwrap();
                } else if rng.gen_bool(0.3) {
                    t.set_attr(el, "n", format!("{i}")).unwrap();
                }
                open.push(el);
            }
        }
        t
    }

    #[test]
    fn one_pass_collect_matches_the_reference() {
        let mut rng = SplitMix64::new(0x57A7_5EED);
        for case in 0..200 {
            let forest: Vec<Tree> = (0..rng.gen_range(0..4usize))
                .map(|_| random_tree(&mut rng, 60))
                .collect();
            assert_eq!(
                ForestStats::collect(&forest),
                ForestStats::collect_reference(&forest),
                "case {case}"
            );
        }
        // the distinct-value cap: 300 distinct <size> values, one <u> value
        let wide = forest(300);
        let s = ForestStats::collect(&wide);
        assert_eq!(s, ForestStats::collect_reference(&wide));
        assert_eq!(s.labels[&Label::new("size")].distinct_values, DISTINCT_CAP);
        // subtree views measure the view, not the arena behind it
        let big = random_tree(&mut rng, 80);
        let views: Vec<Tree> = big
            .children(big.root())
            .iter()
            .filter(|&&c| big.node(c).is_element())
            .map(|&c| big.subtree(c).unwrap())
            .collect();
        assert_eq!(
            ForestStats::collect(&views),
            ForestStats::collect_reference(&views)
        );
    }

    /// Below twice the cap every number is kept; above it an evenly
    /// spaced sample of at least the cap, and the count stays exact.
    #[test]
    fn numbers_are_kept_then_sampled() {
        let s = ForestStats::collect(&forest(2 * NUMBERS_CAP - 1));
        let size = &s.labels[&Label::new("size")];
        assert_eq!(size.numbers.len(), 2 * NUMBERS_CAP - 1);
        let s = ForestStats::collect(&forest(5000));
        let size = &s.labels[&Label::new("size")];
        assert_eq!(size.numerals, 5000);
        assert!((NUMBERS_CAP..2 * NUMBERS_CAP).contains(&size.numbers.len()));
        // every 8th: 0, 800, 1600, …
        assert_eq!(size.numbers[..3], [0.0, 800.0, 1600.0]);
        assert!(size.numbers.windows(2).all(|w| w[0] <= w[1]));
    }

    /// `size > 100000` on catalogs of 1 %, 10 % and 50 % big packages —
    /// and on one large enough that its numbers are sampled — estimates
    /// within 2× of the true share.
    #[test]
    fn range_selectivity_follows_the_data() {
        let all = plan("for $p in $0//pkg return {$p}");
        let big = plan("for $p in $0//pkg where $p/size/text() > 100000 return {$p}");
        let step = plan("$0//pkg[size > 100000]");
        for (n, share, seed) in [
            (1000, 0.01, 1),
            (1000, 0.10, 10),
            (1000, 0.50, 50),
            (4000, 0.10, 4),
        ] {
            let cat = catalog(n, share, seed);
            let s = ForestStats::collect(std::slice::from_ref(&cat));
            let truth = cat
                .descendants_labeled(cat.root(), "size")
                .filter(|&x| cat.text(x).parse::<u32>().unwrap() > 100_000)
                .count() as f64
                / n as f64;
            for q in [&big, &step] {
                let sel = est(q, &s).0 / est(&all, &s).0;
                assert!(
                    sel <= 2.0 * truth && sel >= truth / 2.0,
                    "{n} packages, {share}: estimated {sel}, true {truth}"
                );
            }
        }
    }

    /// A constructed result is sized from its template: within 1.5× of
    /// the bytes the evaluator produces.
    #[test]
    fn constructed_results_are_sized_from_the_template() {
        let src = r#"for $p in $0//pkg where $p/size/text() > 100000
                     return <big name="{$p/@name}">{$p/size}</big>"#;
        let q = Query::parse("select-big", src).unwrap();
        for (share, seed) in [(0.01, 1), (0.10, 10), (0.50, 50)] {
            let cat = catalog(1000, share, seed);
            let s = ForestStats::collect(std::slice::from_ref(&cat));
            let measured: usize = q
                .eval_batch(&[vec![cat]])
                .unwrap()
                .iter()
                .map(Tree::serialized_size)
                .sum();
            let e = est(q.plan(), &s).1;
            let ratio = e / measured as f64;
            assert!(
                (1.0 / 1.5..=1.5).contains(&ratio),
                "{share}: estimated {e} B, measured {measured} B"
            );
        }
    }

    /// A selection and its decomposition `outer(pushed(·))` estimate the
    /// same value: the outer query reads the pushed result's view as it
    /// would read the catalog.
    #[test]
    fn a_decomposed_selection_estimates_the_same_value() {
        let q = Query::parse(
            "select-big",
            r#"for $p in $0//pkg where $p/size/text() > 100000
               return <big name="{$p/@name}">{$p/size}</big>"#,
        )
        .unwrap();
        let (outer, pushed) = q.decompose_selection().unwrap();
        let s = ForestStats::collect(&[catalog(1000, 0.1, 10)]);
        let whole = estimate(q.plan(), &[View::of(&s)], &no_docs).unwrap();
        let inner = estimate(pushed.plan(), &[View::of(&s)], &no_docs).unwrap();
        let split = estimate(outer.plan(), &[inner], &no_docs).unwrap();
        assert_eq!(
            (whole.cardinality, whole.bytes),
            (split.cardinality, split.bytes)
        );
    }

    #[test]
    fn estimate_scales_with_input() {
        let q = plan("for $p in $0//pkg return {$p}");
        let small = est(&q, &ForestStats::collect(&forest(5)));
        let large = est(&q, &ForestStats::collect(&forest(50)));
        assert!(large.0 > small.0 * 5.0);
        assert!(large.1 > small.1);
    }

    #[test]
    fn selection_reduces_estimate() {
        let all = plan("for $p in $0//pkg return {$p}");
        let sel = plan(r#"for $p in $0//pkg where $p/size/text() = "100" return {$p}"#);
        let s = ForestStats::collect(&forest(20));
        assert!(est(&sel, &s).0 < est(&all, &s).0);
    }

    #[test]
    fn empty_input_zero() {
        let q = plan("for $p in $0//pkg return {$p}");
        assert_eq!(est(&q, &ForestStats::collect(&[])), (0.0, 0.0));
    }

    /// A forest known only by its size cannot be read: the caller falls
    /// back to its own rule.
    #[test]
    fn a_sized_input_is_not_estimated() {
        let q = plan("for $p in $0//pkg return {$p}");
        assert!(estimate(&q, &[View::sized(100.0)], &no_docs).is_none());
    }

    #[test]
    fn joins_multiply() {
        let j = plan("for $a in $0//pkg for $b in $0//pkg return <p/>");
        let single = plan("for $a in $0//pkg return <p/>");
        let s = ForestStats::collect(&forest(10));
        assert!(est(&j, &s).0 > est(&single, &s).0 * 5.0);
    }

    #[test]
    fn selectivities_bounded() {
        let s = ForestStats::collect(&forest(10));
        let q = plan(
            r#"for $p in $0//pkg where contains($p/@name, "p") or not(exists($p/deps)) return {$p}"#,
        );
        let all = plan("for $p in $0//pkg return {$p}");
        let sel = est(&q, &s).0 / est(&all, &s).0;
        assert!((0.0..=1.0).contains(&sel), "{sel}");
    }
}
