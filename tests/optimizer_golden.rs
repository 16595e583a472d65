//! Pinned optimizer behaviour *across commits*.
//!
//! The optimizer's unit tests compare two plans of one build, so they
//! cannot see a change to the cost model, the memo key or the search
//! order that shifts every plan the same way. This test pins, for the
//! seven `query_ship` plan shapes (`benchmark/src/workloads/query_ship.rs`),
//! experiment E8's four shapes and the relay triangle, digests recorded
//! once on a known-good commit: the chosen plan's fingerprint text
//! (FNV-1a + length), its rule trace, the number of candidates explored,
//! the memo hits, and the bit patterns of the estimated cost.
//!
//! A mismatch prints the drifted rows; re-pin them only for a change
//! that is *meant* to alter plan choice or search order.

use axml::net::frame::fnv1a64;
use axml::prelude::*;
use axml::xml::tree::Tree;
use axml_prng::SplitMix64;
use std::fmt::Write as _;

const CLIENT: PeerId = PeerId(0);
const DATA_1: PeerId = PeerId(1);
const BIG: u32 = 100_000;

/// Digests recorded on commit 3605959 (PR 12), before the statistics
/// cache and the streaming emitter. The two `double-use` rows were
/// re-pinned when rule (13) became a query rewrite: the shared query is
/// priced from its argument's own statistics, no longer from an unknown
/// temporary document, so sharing now leads both plans.
#[rustfmt::skip]
const GOLDEN: [(&str, &str); 12] = [
    ("qs/remote-selection-1", "plan=e971eae23ae10d0d/533 trace=[\"R14-relocate\", \"R10-delegate\", \"R11-push-selections\"] explored=686 hits=91 cost=405498adab9f559b/40a74c0000000000/4000000000000000"),
    ("qs/remote-selection-10", "plan=761fdd4d8f6ea44b/534 trace=[\"R14-relocate\", \"R10-delegate\", \"R11-push-selections\"] explored=686 hits=91 cost=405498d4fdf3b646/40a7520000000000/4000000000000000"),
    ("qs/remote-selection-50", "plan=b2584e696cb5f07f/534 trace=[\"R14-relocate\", \"R10-delegate\", \"R11-push-selections\"] explored=686 hits=91 cost=40549930be0ded28/40a7600000000000/4000000000000000"),
    ("qs/query-over-sc", "plan=718aab59d402dbbf/471 trace=[\"R14-relocate\", \"R11-push-selections\"] explored=486 hits=53 cost=405493a92a305532/40a6880000000000/4000000000000000"),
    ("qs/generic-doc-selection", "plan=c66cfcbdb5e59282/467 trace=[\"R10-delegate\", \"R11-push-selections\", \"R9-generic\"] explored=597 hits=64 cost=4054bfcb923a29c8/40ad440000000000/4000000000000000"),
    ("qs/double-use", "plan=4ad75c26ea05b819/432 trace=[\"R13-share-transfer\", \"R14-relocate\", \"R10-delegate\"] explored=647 hits=105 cost=4055738ef34d6a16/40bc590000000000/4000000000000000"),
    ("qs/sc-forward", "plan=b51ea3b0ae37dbfd/144 trace=[\"R15-sc-relocate\"] explored=290 hits=35 cost=40542113404ea4a8/4084300000000000/4000000000000000"),
    ("e8/remote-selection", "plan=cf49c549993f0e1e/535 trace=[\"R14-relocate\", \"R10-delegate\", \"R11-push-selections\"] explored=279 hits=95 cost=4054f9999999999a/40b30b0000000000/4000000000000000"),
    ("e8/query-over-sc", "plan=718aab59d402dbbf/471 trace=[\"R14-relocate\", \"R11-push-selections\"] explored=195 hits=45 cost=4055313404ea4a8c/40b7490000000000/4000000000000000"),
    ("e8/generic-doc-selection", "plan=cf49c549993f0e1e/535 trace=[\"R9-generic\", \"R14-relocate\", \"R10-delegate\", \"R11-push-selections\"] explored=358 hits=85 cost=4054f9999999999a/40b30b0000000000/4000000000000000"),
    ("e8/double-use", "plan=958d2d743048b5d5/424 trace=[\"R13-share-transfer\", \"R14-relocate\", \"R10-delegate\"] explored=242 hits=91 cost=4056b5810624dd2f/40ca748000000000/4000000000000000"),
    ("relay-triangle", "plan=5b60ea13b53a3f8d/163 trace=[\"R12-add-stop\"] explored=46 hits=75 cost=400407b352a84381/40d4cc4000000000/4010000000000000"),
];

/// A catalog of `n` packages, a `selectivity` share of them above
/// [`BIG`]; names carry characters the serializer must escape.
fn catalog(n: usize, selectivity: f64, seed: u64) -> String {
    let mut rng = SplitMix64::new(seed);
    let mut xml = String::from("<catalog>");
    for i in 0..n {
        let size = if rng.next_f64() < selectivity {
            BIG + 1 + rng.gen_range(0..10_000u32)
        } else {
            10_000 + rng.gen_range(0..40_000u32)
        };
        write!(
            xml,
            r#"<pkg name="pkg-{i:04}-{:x}"><size>{size}</size><desc>package {i} &amp; friends &lt;synthetic&gt;</desc></pkg>"#,
            rng.gen_range(0..4096u32)
        )
        .unwrap();
    }
    xml.push_str("</catalog>");
    xml
}

fn query(name: &str, src: &str) -> Query {
    Query::parse(name, src).unwrap()
}

fn select_big() -> Query {
    query(
        "select-big",
        r#"for $p in $0//pkg where $p/size/text() > 100000
           return <big name="{$p/@name}">{$p/size}</big>"#,
    )
}

fn doc_at(name: &str, at: PeerId) -> Expr {
    Expr::Doc {
        name: name.into(),
        at: PeerRef::At(at),
    }
}

fn apply(q: Query, args: Vec<Expr>) -> Expr {
    Expr::Apply {
        query: LocatedQuery::new(q, CLIENT),
        args,
    }
}

fn sc(service: &str, params: Vec<Expr>, forward: Vec<NodeAddr>) -> Expr {
    Expr::Sc {
        provider: PeerRef::At(DATA_1),
        service: service.into(),
        params,
        forward,
    }
}

const ALL_PKGS: &str = r#"for $p in doc("cat-10")//pkg return {$p}"#;
const RESOLVE: &str = r#"for $p in doc("cat-10")//pkg for $w in $0/name
    where $p/@name = $w/text() and $p/size/text() > 100000
    return <hit>{$p/@name}</hit>"#;

/// The `query_ship` deployment: six peers, three catalogs at data-1, a
/// four-member generic class, two declarative services, a vault.
fn query_ship_system() -> AxmlSystem {
    let c10 = catalog(200, 0.10, 10);
    AxmlSystem::builder()
        .peers([
            "client", "data-1", "data-2", "gateway", "mirror-1", "mirror-2",
        ])
        .link("client", "data-1", LinkCost::wan())
        .link("client", "data-2", LinkCost::slow())
        .link("data-1", "data-2", LinkCost::lan())
        .link("client", "gateway", LinkCost::wan())
        .link("gateway", "data-1", LinkCost::wan())
        .link("gateway", "data-2", LinkCost::wan())
        .link("client", "mirror-1", LinkCost::wan())
        .link("client", "mirror-2", LinkCost::slow())
        .link("mirror-1", "data-1", LinkCost::wan())
        .link("mirror-2", "data-1", LinkCost::wan())
        .doc("data-1", "cat-1", catalog(200, 0.01, 1).as_str())
        .replica("data-1", "cat-any", "cat-10", c10.as_str())
        .doc("data-1", "cat-50", catalog(200, 0.50, 50).as_str())
        .doc(
            "data-1",
            "wanted",
            "<want><name>pkg-0003-a</name><name>pkg-0100-ff</name></want>",
        )
        .replica("data-2", "cat-any", "catalog", c10.as_str())
        .replica("mirror-1", "cat-any", "catalog", c10.as_str())
        .replica("mirror-2", "cat-any", "catalog", c10.as_str())
        .service("data-1", "all-pkgs", ALL_PKGS)
        .service("data-1", "resolve", RESOLVE)
        .doc("gateway", "vault", "<vault/>")
        .build()
        .unwrap()
}

fn query_ship_shapes() -> Vec<(&'static str, Expr)> {
    let pair = query(
        "pair",
        r#"for $x in $0//pkg[size > 100000] for $y in $1//pkg[size > 100000]
           where $x/@name = $y/@name return <p>{$x/@name}</p>"#,
    );
    vec![
        (
            "qs/remote-selection-1",
            apply(select_big(), vec![doc_at("cat-1", DATA_1)]),
        ),
        (
            "qs/remote-selection-10",
            apply(select_big(), vec![doc_at("cat-10", DATA_1)]),
        ),
        (
            "qs/remote-selection-50",
            apply(select_big(), vec![doc_at("cat-50", DATA_1)]),
        ),
        (
            "qs/query-over-sc",
            apply(
                query(
                    "fmt",
                    r#"for $t in $0 where $t/size/text() > 100000 return <w>{$t/@name}</w>"#,
                ),
                vec![sc("all-pkgs", vec![], vec![])],
            ),
        ),
        (
            "qs/generic-doc-selection",
            apply(
                select_big(),
                vec![Expr::Doc {
                    name: "cat-any".into(),
                    at: PeerRef::Any,
                }],
            ),
        ),
        (
            "qs/double-use",
            apply(
                pair,
                vec![doc_at("cat-10", DATA_1), doc_at("cat-10", DATA_1)],
            ),
        ),
        (
            "qs/sc-forward",
            sc(
                "resolve",
                vec![doc_at("wanted", DATA_1)],
                vec![NodeAddr::new(PeerId(3), "vault", Tree::new("vault").root())],
            ),
        ),
    ]
}

/// Experiment E8's deployment (`crates/bench/src/experiments/e8_optimizer.rs`).
fn e8_system() -> AxmlSystem {
    let cat = catalog(400, 0.05, 0xE8);
    let mut sys = AxmlSystem::builder()
        .peers(["client", "data-1", "data-2"])
        .link("client", "data-1", LinkCost::wan())
        .link("client", "data-2", LinkCost::slow())
        .link("data-1", "data-2", LinkCost::lan())
        .doc("data-1", "catalog", cat.as_str())
        .replica("data-2", "cat-any", "catalog", cat.as_str())
        .service(
            "data-1",
            "all-pkgs",
            r#"for $p in doc("catalog")//pkg return {$p}"#,
        )
        .build()
        .unwrap();
    sys.catalog_mut()
        .add_doc_replica("cat-any", DATA_1, "catalog");
    sys
}

fn e8_shapes() -> Vec<(&'static str, Expr)> {
    vec![
        (
            "e8/remote-selection",
            apply(select_big(), vec![doc_at("catalog", DATA_1)]),
        ),
        (
            "e8/query-over-sc",
            apply(
                query(
                    "fmt",
                    r#"for $t in $0 where $t/size/text() > 100000 return <w>{$t/@name}</w>"#,
                ),
                vec![sc("all-pkgs", vec![], vec![])],
            ),
        ),
        (
            "e8/generic-doc-selection",
            apply(
                select_big(),
                vec![Expr::Doc {
                    name: "cat-any".into(),
                    at: PeerRef::Any,
                }],
            ),
        ),
        (
            "e8/double-use",
            apply(
                query(
                    "pair",
                    r#"for $x in $0//pkg for $y in $1//pkg
                       where $x/@name = $y/@name and $x/size/text() > 100000
                       return <p>{$x/@name}</p>"#,
                ),
                vec![doc_at("catalog", DATA_1), doc_at("catalog", DATA_1)],
            ),
        ),
    ]
}

/// a↔b is terrible, a↔relay and relay↔b are fast (rule (12) right-to-left).
fn relay_system() -> AxmlSystem {
    AxmlSystem::builder()
        .peers(["a", "b", "relay"])
        .link(
            "a",
            "b",
            LinkCost {
                latency_ms: 500.0,
                bytes_per_ms: 10.0,
                per_msg_bytes: 256,
            },
        )
        .link("a", "relay", LinkCost::lan())
        .link("b", "relay", LinkCost::lan())
        .doc("b", "catalog", catalog(100, 0.2, 12).as_str())
        .build()
        .unwrap()
}

fn relay_shape() -> (&'static str, Expr) {
    (
        "relay-triangle",
        Expr::EvalAt {
            peer: DATA_1,
            expr: Box::new(Expr::Send {
                dest: SendDest::Peer(CLIENT),
                payload: Box::new(doc_at("catalog", DATA_1)),
            }),
        },
    )
}

/// The digest line of one search.
fn digest(sys: &AxmlSystem, naive: &Expr) -> String {
    let model = CostModel::from_system(sys);
    let mut obs = Obs::new();
    let plan = Optimizer::standard().optimize_with(&model, CLIENT, naive, &mut obs);
    let text = plan.expr.fingerprint();
    format!(
        "plan={:016x}/{} trace={:?} explored={} hits={} cost={:016x}/{:016x}/{:016x}",
        fnv1a64(text.as_bytes()),
        text.len(),
        plan.trace,
        plan.explored,
        obs.metrics.memo_hits,
        plan.cost.time_ms.to_bits(),
        plan.cost.bytes.to_bits(),
        plan.cost.messages.to_bits(),
    )
}

#[test]
fn optimizer_behaviour_matches_the_pinned_digests() {
    let mut rows: Vec<(&str, String)> = Vec::new();
    let sys = query_ship_system();
    for (name, naive) in query_ship_shapes() {
        rows.push((name, digest(&sys, &naive)));
    }
    let sys = e8_system();
    for (name, naive) in e8_shapes() {
        rows.push((name, digest(&sys, &naive)));
    }
    let (name, naive) = relay_shape();
    rows.push((name, digest(&relay_system(), &naive)));

    let mut drifted = String::new();
    for (i, (name, actual)) in rows.iter().enumerate() {
        if GOLDEN.get(i) != Some(&(*name, actual.as_str())) {
            writeln!(drifted, "    ({name:?}, {actual:?}),").unwrap();
        }
    }
    assert!(
        drifted.is_empty() && rows.len() == GOLDEN.len(),
        "optimizer behaviour drifted from the pinned digests; actual rows:\n{drifted}"
    );
}
