//! Cardinality and result-size estimation.
//!
//! The distributed optimizer of `axml-core` compares plans by how many
//! bytes each candidate ships between peers; for plans that ship *query
//! results* (delegated selections, pushed queries) it needs an estimate of
//! the result's cardinality and serialized size **before** running the
//! query. This module provides classic textbook estimation: per-label
//! statistics collected from a forest, multiplied through the plan with
//! default selectivities for predicates.
//!
//! Estimates are heuristics — property tests assert only sanity (non-
//! negative, zero on empty input, monotone in input size), not accuracy.

use crate::plan::{
    Axis, CmpOp, Op, OperandPlan, PathPlan, Plan, PlanStep, PlanTest, PredPlan, StartRef,
};
use axml_xml::tree::{NodeKind, Tree};
use axml_xml::Label;
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};

/// Default selectivity of an equality predicate when the number of
/// distinct values is unknown.
pub const SEL_EQ: f64 = 0.1;
/// Selectivity of `!=`.
pub const SEL_NE: f64 = 0.9;
/// Selectivity of a range comparison.
pub const SEL_RANGE: f64 = 1.0 / 3.0;
/// Selectivity of `contains`.
pub const SEL_CONTAINS: f64 = 0.25;
/// Selectivity of `exists`.
pub const SEL_EXISTS: f64 = 0.8;

/// Per-label statistics over one forest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelStats {
    /// Total occurrences of the label.
    pub count: usize,
    /// Sum of the serialized sizes of subtrees rooted at the label.
    pub total_bytes: usize,
    /// Number of distinct string values (capped sample).
    pub distinct_values: usize,
}

/// Statistics of a forest, driving the estimator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ForestStats {
    /// Number of trees.
    pub n_trees: usize,
    /// Total element nodes.
    pub total_elements: usize,
    /// Total serialized bytes.
    pub total_bytes: usize,
    /// Per-label stats.
    pub labels: HashMap<Label, LabelStats>,
}

/// Distinct string values sampled per label.
const DISTINCT_CAP: usize = 256;

impl ForestStats {
    /// Collect statistics over a forest — one bottom-up pass per tree.
    pub fn collect(forest: &[Tree]) -> Self {
        let mut stats = ForestStats {
            n_trees: forest.len(),
            ..ForestStats::default()
        };
        let mut values: HashMap<Label, HashSet<String>> = HashMap::new();
        // The text leaves seen so far, in document order: an element's
        // string value is the tail its subtree appended.
        let mut text = String::new();
        // Text bytes per finished subtree not yet claimed by a parent.
        let mut text_lens: Vec<usize> = Vec::new();
        for t in forest {
            text.clear();
            text_lens.clear();
            stats.total_bytes += t.serialized_sizes(t.root(), &mut |n, size| {
                let label = match t.node(n).kind() {
                    NodeKind::Text(s) => {
                        text.push_str(s);
                        text_lens.push(s.len());
                        return;
                    }
                    NodeKind::Element { label, .. } => *label,
                };
                let first_child = text_lens.len() - t.children(n).len();
                let own: usize = text_lens.drain(first_child..).sum();
                text_lens.push(own);
                stats.total_elements += 1;
                let entry = stats.labels.entry(label).or_default();
                entry.count += 1;
                entry.total_bytes += size;
                let value = &text[text.len() - own..];
                let vals = values.entry(label).or_default();
                if vals.len() < DISTINCT_CAP && !vals.contains(value) {
                    vals.insert(value.to_owned());
                }
            });
        }
        for (l, vals) in values {
            if let Some(e) = stats.labels.get_mut(&l) {
                e.distinct_values = vals.len();
            }
        }
        stats
    }

    /// The pre-one-pass `collect`: re-measures every element's subtree
    /// and concatenates its text from scratch. Kept as the test oracle.
    #[cfg(test)]
    fn collect_reference(forest: &[Tree]) -> Self {
        let mut stats = ForestStats::default();
        let mut values: HashMap<Label, HashSet<String>> = HashMap::new();
        stats.n_trees = forest.len();
        for t in forest {
            stats.total_bytes += t.serialized_size();
            for n in t.descendants_with_self(t.root()) {
                if let NodeKind::Element { label, .. } = t.node(n).kind() {
                    stats.total_elements += 1;
                    let entry = stats.labels.entry(*label).or_default();
                    entry.count += 1;
                    entry.total_bytes += t.serialized_size_node(n);
                    let vals = values.entry(*label).or_default();
                    if vals.len() < DISTINCT_CAP {
                        vals.insert(t.text(n));
                    }
                }
            }
        }
        for (l, vals) in values {
            if let Some(e) = stats.labels.get_mut(&l) {
                e.distinct_values = vals.len();
            }
        }
        stats
    }

    /// Average per-tree occurrences of a label.
    pub fn per_tree(&self, label: &Label) -> f64 {
        if self.n_trees == 0 {
            return 0.0;
        }
        self.labels
            .get(label)
            .map(|s| s.count as f64 / self.n_trees as f64)
            .unwrap_or(0.0)
    }

    /// Average serialized size of a subtree rooted at `label`.
    pub fn avg_bytes(&self, label: &Label) -> f64 {
        match self.labels.get(label) {
            Some(s) if s.count > 0 => s.total_bytes as f64 / s.count as f64,
            _ => 0.0,
        }
    }

    /// Equality selectivity for values under `label`.
    pub fn eq_selectivity(&self, label: &Label) -> f64 {
        match self.labels.get(label) {
            Some(s) if s.distinct_values > 0 => (1.0 / s.distinct_values as f64).min(1.0),
            _ => SEL_EQ,
        }
    }
}

/// An estimate of a query's output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Expected number of result trees.
    pub cardinality: f64,
    /// Expected total serialized bytes of the results.
    pub bytes: f64,
}

impl Estimate {
    /// The zero estimate.
    pub fn zero() -> Self {
        Estimate {
            cardinality: 0.0,
            bytes: 0.0,
        }
    }
}

/// Estimate the cardinality of a path applied to one context item, using
/// the stats of the forest the path ultimately reads.
fn path_fanout(steps: &[PlanStep], stats: &ForestStats) -> (f64, f64) {
    // Returns (expected matches per start item, avg bytes of one match).
    let mut card = 1.0;
    let mut last_bytes = if stats.n_trees > 0 {
        stats.total_bytes as f64 / stats.n_trees as f64
    } else {
        0.0
    };
    for step in steps {
        match &step.test {
            PlanTest::Label(l) => {
                // Heuristic: label frequency per tree bounds the fan-out of
                // both child and descendant steps.
                let f = stats.per_tree(l).max(0.0);
                let f = match step.axis {
                    Axis::Descendant => f,
                    Axis::Child => f.min(stats.per_tree(l)),
                };
                card *= f;
                last_bytes = stats.avg_bytes(l);
            }
            PlanTest::Wildcard => {
                let avg_children = if stats.n_trees > 0 {
                    (stats.total_elements as f64 / stats.n_trees as f64).max(1.0)
                } else {
                    1.0
                };
                card *= avg_children;
                last_bytes = if stats.total_elements > 0 {
                    stats.total_bytes as f64 / stats.total_elements as f64
                } else {
                    0.0
                };
            }
            PlanTest::Text | PlanTest::Attr(_) => {
                // At most one atom per node; assume present.
                last_bytes = 16.0;
            }
        }
        for p in &step.preds {
            card *= pred_selectivity(p, stats);
        }
    }
    (card, last_bytes)
}

/// Selectivity of a predicate under the stats.
pub fn pred_selectivity(pred: &PredPlan, stats: &ForestStats) -> f64 {
    match pred {
        PredPlan::And(a, b) => pred_selectivity(a, stats) * pred_selectivity(b, stats),
        PredPlan::Or(a, b) => {
            let (x, y) = (pred_selectivity(a, stats), pred_selectivity(b, stats));
            (x + y - x * y).min(1.0)
        }
        PredPlan::Not(c) => 1.0 - pred_selectivity(c, stats),
        PredPlan::Cmp { lhs, op, rhs } => {
            let base = match op {
                CmpOp::Eq => {
                    // Use distinct-value stats when the compared label is known.
                    lhs.steps
                        .iter()
                        .rev()
                        .find_map(|s| match &s.test {
                            PlanTest::Label(l) => Some(stats.eq_selectivity(l)),
                            _ => None,
                        })
                        .unwrap_or(SEL_EQ)
                }
                CmpOp::Ne => SEL_NE,
                _ => SEL_RANGE,
            };
            // Comparing against another path (a join) is less selective.
            match rhs {
                OperandPlan::Literal(_) => base,
                OperandPlan::Path(_) => (base * 2.0).min(1.0),
            }
        }
        PredPlan::Contains { .. } => SEL_CONTAINS,
        PredPlan::Exists(_) => SEL_EXISTS,
        PredPlan::CountCmp { op, .. } => match op {
            CmpOp::Eq => SEL_EQ,
            CmpOp::Ne => SEL_NE,
            _ => SEL_RANGE,
        },
    }
}

/// Estimate the output of `plan` when parameter `i` is described by
/// `stats[i]`.
pub fn estimate(plan: &Plan, stats: &[impl Borrow<ForestStats>]) -> Estimate {
    let empty = ForestStats::default();
    let stats_at = |i: usize| -> &ForestStats { stats.get(i).map_or(&empty, Borrow::borrow) };
    let stats_for = |path: &PathPlan| -> &ForestStats {
        match &path.start {
            StartRef::Source(crate::plan::SourceRef::Param(i)) => stats_at(*i),
            _ => stats_at(0),
        }
    };
    // Walk the operator chain innermost-first, multiplying cardinalities.
    let mut chain: Vec<&Op> = Vec::new();
    let mut cur = Some(&plan.ops);
    while let Some(op) = cur {
        chain.push(op);
        cur = op.input();
    }
    chain.reverse();
    let mut card: f64 = 1.0;
    let mut spliced_bytes: f64 = 64.0; // default constructed-tree size
    for op in chain {
        match op {
            Op::Unit => {}
            Op::ForEach { path, .. } => {
                let s = stats_for(path);
                let start_card = match &path.start {
                    StartRef::Source(crate::plan::SourceRef::Param(_)) => s.n_trees as f64,
                    _ => 1.0,
                };
                let (fanout, bytes) = path_fanout(&path.steps, s);
                let per_start = if path.steps.is_empty() { 1.0 } else { fanout };
                card *= (start_card * per_start).max(0.0);
                spliced_bytes = bytes.max(1.0);
            }
            Op::LetBind { .. } => {}
            Op::Filter { pred, .. } => {
                card *= pred_selectivity(pred, stats_at(0));
            }
        }
    }
    if stats.iter().all(|s| s.borrow().n_trees == 0) && plan.arity > 0 {
        return Estimate::zero();
    }
    Estimate {
        cardinality: card,
        bytes: card * (spliced_bytes + 32.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_plan;

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

    #[test]
    fn stats_collection() {
        let f = forest(10);
        let s = ForestStats::collect(&f);
        assert_eq!(s.n_trees, 10);
        assert_eq!(s.labels[&Label::new("pkg")].count, 10);
        assert_eq!(s.per_tree(&Label::new("pkg")), 1.0);
        assert!(s.avg_bytes(&Label::new("pkg")) > 10.0);
        assert_eq!(s.per_tree(&Label::new("nothing")), 0.0);
        assert_eq!(s.avg_bytes(&Label::new("nothing")), 0.0);
        // sizes are distinct → selectivity ~ 1/10
        assert!((s.eq_selectivity(&Label::new("size")) - 0.1).abs() < 1e-9);
    }

    /// A random tree: nested elements over a small label alphabet (so
    /// labels nest inside themselves), attributes and text needing
    /// escapes, mixed content, empty elements.
    fn random_tree(rng: &mut axml_prng::SplitMix64, max_nodes: usize) -> Tree {
        const LABELS: [&str; 4] = ["a", "b", "item", "日本"];
        const TEXTS: [&str; 5] = ["", "x", "a<b", "q\"&é", "plain text"];
        let mut t = Tree::new(*rng.choose(&LABELS).unwrap());
        let mut open = vec![t.root()];
        for i in 0..rng.gen_range(0..max_nodes) {
            let parent = *rng.choose(&open).unwrap();
            if rng.gen_bool(0.4) {
                let text = if rng.gen_bool(0.5) {
                    format!("v{}", rng.gen_range(0..2 * max_nodes))
                } else {
                    rng.choose(&TEXTS).unwrap().to_string()
                };
                t.add_text(parent, text);
            } else {
                let el = t.add_element(parent, *rng.choose(&LABELS).unwrap());
                if rng.gen_bool(0.3) {
                    t.set_attr(el, "k", format!("{i}\"<")).unwrap();
                }
                open.push(el);
            }
        }
        t
    }

    #[test]
    fn one_pass_collect_matches_the_reference() {
        let mut rng = axml_prng::SplitMix64::new(0x57A7_5EED);
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

    #[test]
    fn estimate_scales_with_input() {
        let q = plan("for $p in $0//pkg return {$p}");
        let small = estimate(&q, &[ForestStats::collect(&forest(5))]);
        let large = estimate(&q, &[ForestStats::collect(&forest(50))]);
        assert!(large.cardinality > small.cardinality * 5.0);
        assert!(large.bytes > small.bytes);
    }

    #[test]
    fn selection_reduces_estimate() {
        let all = plan("for $p in $0//pkg return {$p}");
        let sel = plan(r#"for $p in $0//pkg where $p/size/text() = "100" return {$p}"#);
        let s = [ForestStats::collect(&forest(20))];
        assert!(estimate(&sel, &s).cardinality < estimate(&all, &s).cardinality);
    }

    #[test]
    fn empty_input_zero() {
        let q = plan("for $p in $0//pkg return {$p}");
        let e = estimate(&q, &[ForestStats::collect(&[])]);
        assert_eq!(e.cardinality, 0.0);
        assert_eq!(e, Estimate::zero());
    }

    #[test]
    fn joins_multiply() {
        let j = plan("for $a in $0//pkg for $b in $0//pkg return <p/>");
        let single = plan("for $a in $0//pkg return <p/>");
        let s = [ForestStats::collect(&forest(10))];
        let ej = estimate(&j, &s);
        let es = estimate(&single, &s);
        assert!(ej.cardinality > es.cardinality * 5.0);
    }

    #[test]
    fn selectivities_bounded() {
        let s = ForestStats::collect(&forest(10));
        let q = plan(
            r#"for $p in $0//pkg where contains($p/@name, "p") or not(exists($p/deps)) return {$p}"#,
        );
        if let Op::Filter { pred, .. } = &q.ops {
            let sel = pred_selectivity(pred, &s);
            assert!((0.0..=1.0).contains(&sel), "{sel}");
        } else {
            panic!("expected filter");
        }
    }
}
