//! Property tests for the §3.3 equivalence rules: **soundness on random
//! systems**.
//!
//! The paper defines `e1@p1 ≡ e2@p2` as: for any system state Σ, both
//! evaluations produce the same results and leave the same Σ. These tests
//! randomize the state (catalog contents, replica placement, link costs),
//! build a naive expression, apply every rewrite the rule set proposes
//! (one step, at every position), execute both plans on identical fresh
//! systems, and compare:
//!
//! * the produced forests (canonical multiset equality);
//! * the final Σ snapshots, equal for every rule.
//!
//! Every plan the rules reach also decodes from its wire form to itself,
//! rewritten queries included.

use axml_core::cost::CostModel;
use axml_core::prelude::*;
use axml_core::rules::{all_rewrites, standard_rules};
use axml_xml::equiv::forest_equiv;
use axml_xml::tree::Tree;
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

/// Plans visited per seed by `reached_plans_decode_to_themselves`.
const REACHED: usize = 150;

#[derive(Debug, Clone)]
struct Scenario {
    /// Package tuples per peer-b catalog.
    pkgs: Vec<(String, u32)>,
    /// Threshold used in the selection.
    threshold: u32,
    /// Link quality selector: 0 = wan everywhere, 1 = slow a–b, 2 = lan.
    links: u8,
    /// Whether a replica of the catalog also lives on peer c.
    replicated: bool,
    /// Query selector from the pool.
    query: usize,
}

fn queries() -> Vec<&'static str> {
    vec![
        r#"for $p in $0//pkg where $p/size/text() > 5000 return <big>{$p/@name}</big>"#,
        r#"for $p in $0//pkg where contains($p/@name, "a") return {$p}"#,
        "$0//pkg/@name",
        r#"for $p in $0//pkg where $p/size/text() > 1 and $p/size/text() < 9999999 return <r>{$p/size}</r>"#,
    ]
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        proptest::collection::vec(("[a-z]{1,8}", 0u32..100_000), 0..20),
        0u32..100_000,
        0u8..3,
        any::<bool>(),
        0..queries().len(),
    )
        .prop_map(|(pkgs, threshold, links, replicated, query)| Scenario {
            pkgs,
            threshold,
            links,
            replicated,
            query,
        })
}

fn build_system(s: &Scenario) -> (AxmlSystem, PeerId, PeerId, PeerId) {
    let (ab, ac, bc) = match s.links {
        0 => (LinkCost::wan(), LinkCost::wan(), LinkCost::wan()),
        1 => (LinkCost::slow(), LinkCost::lan(), LinkCost::lan()),
        _ => (LinkCost::lan(), LinkCost::wan(), LinkCost::lan()),
    };
    let mut xml = String::from("<catalog>");
    for (name, size) in &s.pkgs {
        xml.push_str(&format!(r#"<pkg name="{name}"><size>{size}</size></pkg>"#));
    }
    xml.push_str("</catalog>");
    let tree = Tree::parse(&xml).unwrap();
    let mut builder = AxmlSystem::builder()
        .peers(["a", "b", "c"])
        .link("a", "b", ab)
        .link("a", "c", ac)
        .link("b", "c", bc)
        .replica("b", "cat", "catalog", tree.clone())
        .service("b", "all-pkgs", r#"doc("catalog")//pkg"#);
    if s.replicated {
        builder = builder.replica("c", "cat", "catalog-c", tree);
    }
    let sys = builder.build().unwrap();
    (sys, PeerId(0), PeerId(1), PeerId(2))
}

/// Naive expressions to seed the rewriting from.
fn seed_exprs(s: &Scenario, a: PeerId, b: PeerId) -> Vec<Expr> {
    let q = Query::parse("q", queries()[s.query]).unwrap();
    let sel = Query::parse(
        "sel",
        &format!(
            r#"for $p in $0//pkg where $p/size/text() > {} return <hit>{{$p/@name}}</hit>"#,
            s.threshold
        ),
    )
    .unwrap();
    vec![
        // remote document fetch
        Expr::Doc {
            name: "catalog".into(),
            at: PeerRef::At(b),
        },
        // generic reference
        Expr::Doc {
            name: "cat".into(),
            at: PeerRef::Any,
        },
        // query over remote doc
        Expr::Apply {
            query: LocatedQuery::new(q, a),
            args: vec![Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(b),
            }],
        },
        // selective query (decomposable)
        Expr::Apply {
            query: LocatedQuery::new(sel.clone(), a),
            args: vec![Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(b),
            }],
        },
        // query over a service call (rule 16 target)
        Expr::Apply {
            query: LocatedQuery::new(
                Query::parse("fmt", "for $t in $0 return <w>{$t/@name}</w>").unwrap(),
                a,
            ),
            args: vec![Expr::Sc {
                provider: PeerRef::At(b),
                service: "all-pkgs".into(),
                params: vec![],
                forward: vec![],
            }],
        },
        // delegated fetch (rule 12/14 target)
        Expr::EvalAt {
            peer: b,
            expr: Box::new(Expr::Send {
                dest: SendDest::Peer(a),
                payload: Box::new(Expr::Apply {
                    query: LocatedQuery::new(sel, a),
                    args: vec![Expr::Doc {
                        name: "catalog".into(),
                        at: PeerRef::At(b),
                    }],
                }),
            }),
        },
        // the same remote document read twice (rule 13 target)
        Expr::Apply {
            query: LocatedQuery::new(
                Query::parse(
                    "pair",
                    "for $x in $0//pkg for $y in $1//pkg where $x/@name = $y/@name return <m>{$x/@name}</m>",
                )
                .unwrap(),
                a,
            ),
            args: vec![
                Expr::Doc {
                    name: "catalog".into(),
                    at: PeerRef::At(b),
                };
                2
            ],
        },
    ]
}

/// Every query `e` applies or deploys, outermost first.
fn queries_in(e: &Expr) -> Vec<&Query> {
    let own = match e {
        Expr::Apply { query, .. } | Expr::Deploy { query, .. } => Some(&query.query),
        _ => None,
    };
    own.into_iter()
        .chain(e.children().iter().flat_map(queries_in))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every single-step rewrite the rule set proposes is sound:
    /// same value, and same Σ.
    #[test]
    fn one_step_rewrites_are_sound(s in arb_scenario(), seed_idx in 0usize..7) {
        let (sys0, a, b, _c) = build_system(&s);
        let model = CostModel::from_system(&sys0);
        let rules = standard_rules();
        let seeds = seed_exprs(&s, a, b);
        let naive = &seeds[seed_idx];

        // Reference run.
        let (mut ref_sys, _, _, _) = build_system(&s);
        let ref_val = ref_sys.eval(a, naive).unwrap();
        let ref_sigma = ref_sys.snapshot();

        for (rule, candidate) in all_rewrites(&rules, a, naive, &model) {
            let (mut sys, _, _, _) = build_system(&s);
            let val = sys.eval(a, &candidate).unwrap_or_else(|e| {
                panic!("rewrite by {rule} failed to evaluate: {e}\n  {candidate}")
            });
            prop_assert!(
                forest_equiv(&ref_val, &val),
                "{rule} changed the value:\n  naive: {naive}\n  rewritten: {candidate}\n  {} vs {} trees",
                ref_val.len(), val.len()
            );
            let sigma = sys.snapshot();
            prop_assert!(sigma == ref_sigma, "{rule} changed Σ:\n  {candidate}");
        }
    }

    /// The optimizer's end-to-end output (multi-step rewriting) is sound
    /// and never worse than naive under the model's own estimate.
    #[test]
    fn optimized_plans_are_sound_and_not_worse(s in arb_scenario(), seed_idx in 0usize..7) {
        let (sys0, a, b, _c) = build_system(&s);
        let model = CostModel::from_system(&sys0);
        let seeds = seed_exprs(&s, a, b);
        let naive = &seeds[seed_idx];
        let plan = Optimizer::standard().optimize(&model, a, naive);
        prop_assert!(plan.cost.scalar() <= model.scalar_cost(a, naive) + 1e-9);

        let (mut s1, _, _, _) = build_system(&s);
        let (mut s2, _, _, _) = build_system(&s);
        let v1 = s1.eval(a, naive).unwrap();
        let v2 = s2.eval(a, &plan.expr).unwrap();
        prop_assert!(
            forest_equiv(&v1, &v2),
            "optimizer broke plan (trace {:?}):\n  {naive}\n  {}",
            plan.trace, plan.expr
        );
    }

    /// Expression XML round-trips survive arbitrary seeds (the wire format
    /// used by delegation requests).
    #[test]
    fn expr_wire_roundtrip(s in arb_scenario(), seed_idx in 0usize..7) {
        let (_sys, a, b, _c) = build_system(&s);
        let e = &seed_exprs(&s, a, b)[seed_idx];
        let xml = Tree::parse(&e.fingerprint()).unwrap();
        let back = Expr::from_xml(&xml, xml.root()).unwrap();
        prop_assert_eq!(e.fingerprint(), back.fingerprint());
    }

    /// Every plan reached breadth-first from a seed (the first
    /// [`REACHED`]) decodes from its wire form to an expression with the
    /// same text and equal queries: a rewritten query ships as text that
    /// parses back to it.
    #[test]
    fn reached_plans_decode_to_themselves(s in arb_scenario(), seed_idx in 0usize..7) {
        let (sys, a, b, _c) = build_system(&s);
        let model = CostModel::from_system(&sys);
        let rules = standard_rules();
        let naive = seed_exprs(&s, a, b).swap_remove(seed_idx);
        let mut seen = HashSet::from([naive.fingerprint()]);
        let mut queue = VecDeque::from([naive]);
        while let Some(e) = queue.pop_front() {
            let text = e.fingerprint();
            let xml = Tree::parse(&text).unwrap();
            let back = Expr::from_xml(&xml, xml.root());
            prop_assert!(back.is_ok(), "{e} does not decode: {:?}", back.err());
            let back = back.unwrap();
            prop_assert_eq!(back.fingerprint(), text);
            prop_assert_eq!(queries_in(&back), queries_in(&e));
            for (_, c) in all_rewrites(&rules, a, &e, &model) {
                if seen.len() < REACHED && seen.insert(c.fingerprint()) {
                    queue.push_back(c);
                }
            }
        }
    }
}
