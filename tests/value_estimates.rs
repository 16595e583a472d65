//! One value, one estimate: a rewrite that keeps a plan's result keeps
//! the cost model's estimate of that result.
//!
//! The optimizer ranks equivalent plans (§3.3, rules (9)–(16)) by what
//! they ship; that ranking is only as good as the model's agreement with
//! itself. If `outer(pushed(x))` were valued below `q(x)`, or a value
//! wrapped in `eval@p(send(p, ·))` below the value itself, the search
//! would prefer a spelling, not a plan. So for every candidate reached
//! breadth-first from each naive plan — `prop_rules.rs`'s seed shapes on
//! seeded three-peer systems, and the `query_ship` and E8 shapes of
//! `tests/shapes` — every rewrite by rules (9), (11), (13) and (14) must
//! leave `CostModel::estimate(..).value_bytes` equal within 1e-9
//! relative.

mod shapes;

use axml::core::rules::{all_rewrites, standard_rules};
use axml::prelude::*;
use axml_prng::SplitMix64;
use shapes::*;
use std::collections::{HashSet, VecDeque};

/// Candidates checked per naive plan.
const CANDIDATES: usize = 300;
/// The rules whose rewrites must keep the value's estimate.
const VALUE_KEEPING: [&str; 4] = [
    "R9-generic",
    "R11-push-selections",
    "R13-share-transfer",
    "R14-relocate",
];

/// Check every value-keeping rewrite of the candidates reached from
/// `naive`; returns how many rewrites were compared.
fn check(name: &str, sys: &AxmlSystem, site: PeerId, naive: &Expr) -> usize {
    let model = CostModel::from_system(sys);
    let rules = standard_rules();
    let value = |e: &Expr| model.estimate(site, e).value_bytes;
    let mut seen = HashSet::from([naive.fingerprint()]);
    let mut queue = VecDeque::from([naive.clone()]);
    let mut compared = 0;
    while let Some(e) = queue.pop_front() {
        let before = value(&e);
        for (rule, c) in all_rewrites(&rules, site, &e, &model) {
            if VALUE_KEEPING.contains(&rule) {
                let after = value(&c);
                assert!(
                    (after - before).abs() <= 1e-9 * before.abs().max(after.abs()),
                    "{name}: {rule} values {e} at {before} B but {c} at {after} B"
                );
                compared += 1;
            }
            if seen.len() < CANDIDATES && seen.insert(c.fingerprint()) {
                queue.push_back(c);
            }
        }
    }
    compared
}

/// `prop_rules.rs`'s scenario system: a catalog at b, a generic class
/// with a replica at c when `replicated`, a declarative service at b.
fn seed_system(pkgs: &[(String, u32)], replicated: bool) -> AxmlSystem {
    let mut xml = String::from("<catalog>");
    for (name, size) in pkgs {
        xml.push_str(&format!(r#"<pkg name="{name}"><size>{size}</size></pkg>"#));
    }
    xml.push_str("</catalog>");
    let tree = Tree::parse(&xml).unwrap();
    let mut builder = AxmlSystem::builder()
        .peers(["a", "b", "c"])
        .link("a", "b", LinkCost::slow())
        .link("a", "c", LinkCost::lan())
        .link("b", "c", LinkCost::lan())
        .replica("b", "cat", "catalog", tree.clone())
        .service("b", "all-pkgs", r#"doc("catalog")//pkg"#);
    if replicated {
        builder = builder.replica("c", "cat", "catalog-c", tree);
    }
    builder.build().unwrap()
}

/// `prop_rules.rs`'s seed shapes, evaluated at a.
fn seed_shapes(threshold: u32) -> Vec<Expr> {
    let (a, b) = (PeerId(0), PeerId(1));
    let catalog = || doc_at("catalog", b);
    let at_a = |q: Query, args: Vec<Expr>| Expr::Apply {
        query: LocatedQuery::new(q, a),
        args,
    };
    let sel = query(
        "sel",
        &format!(
            r#"for $p in $0//pkg where $p/size/text() > {threshold} return <hit>{{$p/@name}}</hit>"#
        ),
    );
    let mut shapes = vec![
        catalog(),
        Expr::Doc {
            name: "cat".into(),
            at: PeerRef::Any,
        },
    ];
    for src in [
        r#"for $p in $0//pkg where $p/size/text() > 5000 return <big>{$p/@name}</big>"#,
        r#"for $p in $0//pkg where contains($p/@name, "a") return {$p}"#,
        "$0//pkg/@name",
        r#"for $p in $0//pkg where $p/size/text() > 1 and $p/size/text() < 9999999 return <r>{$p/size}</r>"#,
    ] {
        shapes.push(at_a(query("q", src), vec![catalog()]));
    }
    shapes.extend([
        at_a(sel.clone(), vec![catalog()]),
        at_a(
            query("fmt", "for $t in $0 return <w>{$t/@name}</w>"),
            vec![Expr::Sc {
                provider: PeerRef::At(b),
                service: "all-pkgs".into(),
                params: vec![],
                forward: vec![],
            }],
        ),
        Expr::EvalAt {
            peer: b,
            expr: Box::new(Expr::Send {
                dest: SendDest::Peer(a),
                payload: Box::new(at_a(sel, vec![catalog()])),
            }),
        },
        at_a(
            query(
                "pair",
                "for $x in $0//pkg for $y in $1//pkg where $x/@name = $y/@name return <m>{$x/@name}</m>",
            ),
            vec![catalog(), catalog()],
        ),
    ]);
    shapes
}

#[test]
fn value_keeping_rewrites_keep_the_value_estimate() {
    let mut compared = 0;
    let mut rng = SplitMix64::new(0x0E57_1A7E);
    for case in 0..3 {
        let pkgs: Vec<(String, u32)> = (0..rng.gen_range(1..20usize))
            .map(|i| (format!("p{i}"), rng.gen_range(0..100_000u32)))
            .collect();
        let sys = seed_system(&pkgs, case % 2 == 0);
        for (i, naive) in seed_shapes(rng.gen_range(0..100_000u32)).iter().enumerate() {
            compared += check(&format!("seed {case}/{i}"), &sys, PeerId(0), naive);
        }
    }
    let sys = query_ship_system();
    for (name, naive) in query_ship_shapes() {
        compared += check(name, &sys, CLIENT, &naive);
    }
    let sys = e8_system();
    for (name, naive) in e8_shapes() {
        compared += check(name, &sys, CLIENT, &naive);
    }
    assert!(compared > 10_000, "{compared} rewrites compared");
}
