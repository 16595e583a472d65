//! Property tests for the query subsystem:
//!
//! * the parser answers mutated sources with `Ok` or a typed error, and
//!   what it accepts round-trips through the wire form,
//! * continuous (delta) evaluation ≡ batch re-evaluation,
//! * `decompose_selection` and `push_filter_into_path` preserve semantics
//!   on random inputs — these are the query-level halves of the paper's
//!   equivalence rules (10)/(11).

use axml_prng::SplitMix64;
use axml_query::eval::NoDocs;
use axml_query::{Query, QueryError};
use axml_xml::equiv::{canonicalize, forest_equiv, Canon, CanonMultiset};
use axml_xml::tree::Tree;
use proptest::prelude::*;
use std::collections::HashMap;

/// Random package catalogs: the workload family used across the repo.
fn arb_catalog() -> impl Strategy<Value = Tree> {
    proptest::collection::vec(
        (
            "[a-z]{1,6}",
            0u32..100_000,
            proptest::collection::vec("[a-z]{1,5}", 0..3),
        ),
        0..8,
    )
    .prop_map(|pkgs| {
        let mut t = Tree::new("catalog");
        let root = t.root();
        for (name, size, deps) in pkgs {
            let p = t.add_element(root, "pkg");
            t.set_attr(p, "name", name).unwrap();
            t.add_text_element(p, "size", size.to_string());
            if !deps.is_empty() {
                let d = t.add_element(p, "deps");
                for dep in deps {
                    t.add_text_element(d, "dep", dep);
                }
            }
        }
        t
    })
}

/// A pool of query sources exercising different operator shapes.
fn query_pool() -> Vec<&'static str> {
    vec![
        r#"for $p in $0//pkg where $p/size/text() > 5000 return <big>{$p/@name}</big>"#,
        r#"for $p in $0//pkg where contains($p/@name, "a") return {$p}"#,
        r#"for $p in $0//pkg[deps/dep = "ab"] return <d n="{$p/@name}"/>"#,
        r#"for $p in $0//pkg where not(exists($p/deps)) return <leaf>{$p/@name}</leaf>"#,
        "$0//dep",
        r#"for $a in $0//pkg for $b in $0//pkg where $a/size/text() < $b/size/text() return <lt/>"#,
        r#"let $all := $0//pkg where exists($all) return <count>{$all/@name}</count>"#,
        r#"for $p in $0//pkg where $p/size/text() >= 100 and $p/size/text() <= 50000 return {$p/size}"#,
        r#"for $p in $0//pkg where count($p/deps/dep) >= 2 return <multi>{$p/@name}</multi>"#,
    ]
}

fn arb_query() -> impl Strategy<Value = Query> {
    (0..query_pool().len()).prop_map(|i| Query::parse("q", query_pool()[i]).unwrap())
}

/// The monotone subset: every result, once produced, stays in the batch
/// answer as the input grows. (The `let`-aggregation query is excluded:
/// its single output tree *changes* with the input, and the continuous
/// evaluator — matching the paper's append-only stream semantics — emits
/// additions without retracting.)
fn arb_monotone_query() -> impl Strategy<Value = Query> {
    let pool: Vec<&str> = query_pool()
        .into_iter()
        .filter(|s| !s.starts_with("let"))
        .collect();
    (0..pool.len()).prop_map(move |i| Query::parse("q", pool[i]).unwrap())
}

/// The delta filter `CanonMultiset::admit` replaced, kept as its
/// reference: spend a clone of the delivered counts as a budget, then
/// count the fresh trees in.
fn budget_reference(emitted: &mut HashMap<Canon, usize>, results: Vec<Tree>) -> Vec<Tree> {
    let mut budget = emitted.clone();
    let mut fresh = Vec::new();
    for t in results {
        match budget.get_mut(&canonicalize(&t, t.root())) {
            Some(n) if *n > 0 => *n -= 1,
            _ => fresh.push(t),
        }
    }
    for t in &fresh {
        *emitted.entry(canonicalize(t, t.root())).or_insert(0) += 1;
    }
    fresh
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `admit` lets through exactly what the budget reference does, in the
    /// same order, on batches with repeats — including a second batch that
    /// re-sends part of the first and a third that re-sends everything.
    #[test]
    fn admit_equals_budget_reference(
        first in proptest::collection::vec((0usize..6, 0u8..2), 0..12),
        extra in proptest::collection::vec(0usize..8, 0..8),
    ) {
        // Equivalent up to sibling order: odd positions flip the children.
        let tree = |at: usize, i: usize| {
            let xml = [format!("<r><a>{i}</a><b/></r>"), format!("<r><b/><a>{i}</a></r>")];
            Tree::parse(&xml[at & 1]).unwrap()
        };
        let batch1: Vec<Tree> = first.iter().enumerate().map(|(at, (i, _))| tree(at, *i)).collect();
        let mut batch2: Vec<Tree> = first
            .iter()
            .enumerate()
            .filter(|(_, (_, resend))| *resend == 1)
            .map(|(at, (i, _))| tree(at + 1, *i))
            .collect();
        batch2.extend(extra.iter().enumerate().map(|(at, i)| tree(at, *i)));
        let batch3: Vec<Tree> = batch1.iter().chain(&batch2).cloned().collect();
        let (mut set, mut reference) = (CanonMultiset::default(), HashMap::new());
        for batch in [batch1, batch2, batch3] {
            let ser = |ts: Vec<Tree>| ts.iter().map(Tree::serialize).collect::<Vec<_>>();
            prop_assert_eq!(
                ser(set.admit(batch.clone())),
                ser(budget_reference(&mut reference, batch))
            );
        }
    }

    /// Continuous evaluation emits, across a whole stream, exactly the
    /// batch result over the accumulated forest.
    #[test]
    fn delta_equals_batch(
        q in arb_monotone_query(),
        stream in proptest::collection::vec(arb_catalog(), 1..6),
    ) {
        let mut cont = q.continuous(&NoDocs).unwrap();
        let mut emitted = Vec::new();
        for t in &stream {
            emitted.extend(cont.push(0, t.clone()).unwrap());
        }
        let batch = q.eval_batch(&[stream]).unwrap();
        prop_assert!(forest_equiv(&emitted, &batch),
            "continuous {} vs batch {}", emitted.len(), batch.len());
    }

    /// Decomposition (Example 1 / rule 11) preserves results whenever it
    /// applies.
    #[test]
    fn decompose_preserves(
        q in arb_query(),
        input in proptest::collection::vec(arb_catalog(), 0..4),
    ) {
        if let Some((outer, pushed)) = q.decompose_selection() {
            let direct = q.eval_batch(std::slice::from_ref(&input)).unwrap();
            let mid = pushed.eval_batch(&[input]).unwrap();
            let composed = outer.eval_batch(std::slice::from_ref(&mid)).unwrap();
            prop_assert!(forest_equiv(&direct, &composed));
            prop_assert!(mid.len() >= composed.len() || composed.is_empty()
                || mid.len() == composed.len());
        }
    }

    /// Folding a filter into a path predicate preserves results.
    #[test]
    fn push_filter_preserves(
        q in arb_query(),
        input in proptest::collection::vec(arb_catalog(), 0..4),
    ) {
        if let Some(folded) = q.push_filter_into_path() {
            let a = q.eval_batch(std::slice::from_ref(&input)).unwrap();
            let b = folded.eval_batch(&[input]).unwrap();
            prop_assert!(forest_equiv(&a, &b));
        }
    }

    /// Query XML serialization round-trips and preserves semantics.
    #[test]
    fn wire_roundtrip(
        q in arb_query(),
        input in proptest::collection::vec(arb_catalog(), 0..3),
    ) {
        let xml = Tree::parse(q.wire_xml()).unwrap();
        let back = Query::from_xml(&xml, xml.root()).unwrap();
        prop_assert_eq!(&q, &back);
        let a = q.eval_batch(std::slice::from_ref(&input)).unwrap();
        let b = back.eval_batch(&[input]).unwrap();
        prop_assert!(forest_equiv(&a, &b));
    }

    /// Composition evaluates stage-wise identically to manual piping.
    #[test]
    fn composition_is_piping(
        input in proptest::collection::vec(arb_catalog(), 0..4),
    ) {
        let inner = Query::parse("i", r#"for $p in $0//pkg where $p/size/text() > 100 return {$p}"#).unwrap();
        let outer = Query::parse("o", "for $t in $0 return <w>{$t/@name}</w>").unwrap();
        let comp = Query::compose("c", outer.clone(), vec![inner.clone()]).unwrap();
        let direct = comp.eval_batch(std::slice::from_ref(&input)).unwrap();
        let piped = outer.eval_batch(&[inner.eval_batch(&[input]).unwrap()]).unwrap();
        prop_assert!(forest_equiv(&direct, &piped));
    }

    /// Estimation sanity: non-negative and zero on empty input.
    #[test]
    fn estimates_sane(q in arb_query(), input in proptest::collection::vec(arb_catalog(), 0..4)) {
        use axml_query::estimate::{estimate, ForestStats};
        if let Some(plan) = q.plan() {
            let e = estimate(plan, &[ForestStats::collect(&input)]);
            prop_assert!(e.cardinality >= 0.0);
            prop_assert!(e.bytes >= 0.0);
            if input.is_empty() {
                prop_assert_eq!(e.cardinality, 0.0);
            }
        }
    }
}

/// Query text arrives from other peers (definition (8), shipped
/// expressions): whatever the bytes, `Query::parse` returns — a plan or a
/// typed error, never a panic, never a loop — and what it accepts survives
/// the wire form with an equal plan.
#[test]
fn parse_survives_mutated_sources() {
    const SOURCES: [&str; 4] = [
        r#"for $a in $0//pkg for $b in $1//pkg where $a/@name = $b/@name and not(contains($a/size/text(), "9")) return <pair a="{$a/@name}">{$b/version}</pair>"#,
        r#"let $all := doc("catalog")//pkg[version = "9.1"][@name != "x"]/deps[exists(dep)] where count($all/dep) >= 2 return <n>{$all}</n>"#,
        r#"for $x in $0/a return <out k="lit" v="{$x/@id}">héllo {{braces}} &lt;tag&gt; &amp; {$x}<in/>✓</out>"#,
        r#"$0//pkg[deps/dep = "glibc" or size/text() < 10]/@name"#,
    ];
    let mut rng = SplitMix64::new(0x5EED_0018);
    let (mut parsed, mut rejected) = (0, 0);
    for i in 0..60_000 {
        let mut bytes = SOURCES[i % SOURCES.len()].as_bytes().to_vec();
        for _ in 0..rng.gen_range(1u32..4) {
            rng.mutate_bytes(&mut bytes);
        }
        let src = String::from_utf8_lossy(&bytes);
        match Query::parse("q", &src) {
            Ok(q) => {
                let xml = Tree::parse(q.wire_xml()).unwrap();
                let back = Query::from_xml(&xml, xml.root()).unwrap();
                assert_eq!(q.plan(), back.plan(), "{src:?}");
                parsed += 1;
            }
            Err(_) => rejected += 1,
        }
    }
    assert!(parsed > 1_000 && rejected > 30_000, "{parsed} / {rejected}");
}

/// Conditions and template elements nest 128 deep (`MAX_DEPTH` in
/// `parser.rs`) and no deeper: past the cap the answer is a syntax
/// error, where 100 000 levels used to overflow the stack and abort the
/// process.
#[test]
fn nesting_is_bounded() {
    let parens = |n: usize| {
        let (open, close) = ("(".repeat(n), ")".repeat(n));
        format!(r#"for $x in $0 where {open}$x/a = "1"{close} return <r/>"#)
    };
    let preds = |n: usize| format!("$0/a{}{}", "[b".repeat(n), r#" = "1"]"#.repeat(n));
    let elements = |n: usize| {
        let (open, close) = ("<e>".repeat(n), "</e>".repeat(n));
        format!("for $x in $0 return <r>{open}{close}</r>")
    };
    // The `where` condition and each `[…]` are themselves a level.
    assert!(Query::parse("q", &parens(127)).is_ok());
    assert!(Query::parse("q", &preds(128)).is_ok());
    assert!(Query::parse("q", &elements(128)).is_ok());
    for src in [
        parens(128),
        preds(129),
        elements(129),
        parens(100_000),
        preds(100_000),
        elements(100_000),
        format!("for $x in $0 where {}", "(".repeat(100_000)),
    ] {
        match Query::parse("q", &src) {
            Err(QueryError::Syntax { msg, .. }) => assert!(msg.contains("deeper than 128")),
            other => panic!("{:.60}…: {other:?}", src),
        }
    }
}
