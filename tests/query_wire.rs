//! A rewritten query is a query: it ships as the text its plan prints,
//! and the receiver parses that text back to the same query (§3.1, "an
//! expression can be viewed (serialized) as an XML tree"; definition
//! (8) ships a query's definition).
//!
//! For the shapes of `tests/shapes`, the first [`CANDIDATES`] plans that
//! `rules::all_rewrites` reaches breadth-first from the naive plan each
//! decode through `Expr::from_xml` to an expression with the same text
//! and equal queries. On `same_named_pairs` — two queries named `pair`
//! that differ only in their templates — each of them also keeps the
//! naive plan's result: were the two `pair·shared` rewrites to ship one
//! text, rule (13) would take them for one query read twice.

mod shapes;

use axml::core::rules::{all_rewrites, standard_rules};
use axml::prelude::*;
use shapes::*;
use std::collections::{HashSet, VecDeque};

/// Candidates visited per shape, the naive plan first.
const CANDIDATES: usize = 400;

/// The first [`CANDIDATES`] plans reached breadth-first from `naive`.
fn candidates(sys: &AxmlSystem, naive: &Expr) -> Vec<Expr> {
    let model = CostModel::from_system(sys);
    let rules = standard_rules();
    let mut seen = HashSet::from([naive.fingerprint()]);
    let mut queue = VecDeque::from([naive.clone()]);
    let mut plans = vec![naive.clone()];
    while let Some(e) = queue.pop_front() {
        for (_, c) in all_rewrites(&rules, CLIENT, &e, &model) {
            if seen.insert(c.fingerprint()) {
                plans.push(c.clone());
                queue.push_back(c);
                if plans.len() == CANDIDATES {
                    return plans;
                }
            }
        }
    }
    plans
}

/// Every query `e` applies or deploys, outermost first.
fn queries(e: &Expr) -> Vec<&Query> {
    let own = match e {
        Expr::Apply { query, .. } | Expr::Deploy { query, .. } => Some(&query.query),
        _ => None,
    };
    own.into_iter()
        .chain(e.children().iter().flat_map(queries))
        .collect()
}

/// `e`'s wire form decodes to an expression with the same text and
/// equal queries (equal plans, so equal answers).
fn assert_decodes(e: &Expr) {
    let text = e.fingerprint();
    let xml = Tree::parse(&text).unwrap_or_else(|err| panic!("{e}: {err}"));
    let back =
        Expr::from_xml(&xml, xml.root()).unwrap_or_else(|err| panic!("{e} does not decode: {err}"));
    assert_eq!(back.fingerprint(), text, "{e}");
    assert_eq!(queries(&back), queries(e), "{e}");
}

#[test]
fn every_candidate_of_the_shapes_decodes_to_itself() {
    let shapes = query_ship_shapes()
        .into_iter()
        .chain([same_named_pairs()])
        .map(|(name, naive)| (name, query_ship_system as fn() -> AxmlSystem, naive))
        .chain(
            e8_shapes()
                .into_iter()
                .map(|(name, naive)| (name, e8_system as fn() -> AxmlSystem, naive)),
        );
    for (name, build, naive) in shapes {
        let plans = candidates(&build(), &naive);
        assert!(plans.len() > 40, "{name}: {} candidates", plans.len());
        plans.iter().for_each(assert_decodes);
    }
}

#[test]
fn same_named_pairs_keep_the_result_and_decode() {
    let (_, naive) = same_named_pairs();
    let run = |plan: &Expr| {
        query_ship_system()
            .eval(CLIENT, plan)
            .unwrap_or_else(|e| panic!("{plan} fails: {e}"))
    };
    let want = run(&naive);
    assert!(!want.is_empty());
    let plans = candidates(&query_ship_system(), &naive);
    assert_eq!(plans.len(), CANDIDATES);
    let mut pairs_shared = 0;
    for plan in &plans {
        assert!(forest_equiv(&run(plan), &want), "{plan} changes the result");
        assert_decodes(plan);
        // `both`'s arguments never read one value: the two `pair` queries
        // and every rewrite of them keep their own templates apart.
        let text = plan.to_string();
        assert!(!text.contains("both·shared"), "{text}");
        pairs_shared += usize::from(text.contains("pair·shared"));
    }
    // Rule (13) does rewrite the two `pair` queries themselves.
    assert!(pairs_shared > 0);
}
