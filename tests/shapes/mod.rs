//! The deployments and naive plans the optimizer tests share: the seven
//! `query_ship` plan shapes (`benchmark/src/workloads/query_ship.rs`) on
//! its six-peer deployment, plus one more on it that rule (13) rewrites
//! twice over, and experiment E8's four shapes on its three-peer one,
//! all over seeded 200- and 400-package catalogs.

use axml::prelude::*;
use axml::xml::tree::Tree;
use axml_prng::SplitMix64;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;

pub const CLIENT: PeerId = PeerId(0);
pub const DATA_1: PeerId = PeerId(1);
pub const BIG: u32 = 100_000;

/// A catalog of `n` packages, a `selectivity` share of them above
/// [`BIG`]; names carry characters the serializer must escape. Parsed
/// once per thread: every system built from it shares the tree.
pub fn catalog(n: usize, selectivity: f64, seed: u64) -> Tree {
    thread_local! {
        static PARSED: RefCell<HashMap<(usize, u64, u64), Tree>> = RefCell::new(HashMap::new());
    }
    PARSED.with(|parsed| {
        let key = (n, selectivity.to_bits(), seed);
        let mut parsed = parsed.borrow_mut();
        let tree = parsed
            .entry(key)
            .or_insert_with(|| Tree::parse(&catalog_xml(n, selectivity, seed)).unwrap());
        tree.clone()
    })
}

fn catalog_xml(n: usize, selectivity: f64, seed: u64) -> String {
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

pub fn query(name: &str, src: &str) -> Query {
    Query::parse(name, src).unwrap()
}

pub fn select_big() -> Query {
    query(
        "select-big",
        r#"for $p in $0//pkg where $p/size/text() > 100000
           return <big name="{$p/@name}">{$p/size}</big>"#,
    )
}

pub fn doc_at(name: &str, at: PeerId) -> Expr {
    Expr::Doc {
        name: name.into(),
        at: PeerRef::At(at),
    }
}

pub fn apply(q: Query, args: Vec<Expr>) -> Expr {
    Expr::Apply {
        query: LocatedQuery::new(q, CLIENT),
        args,
    }
}

pub fn sc(service: &str, params: Vec<Expr>, forward: Vec<NodeAddr>) -> Expr {
    Expr::Sc {
        provider: PeerRef::At(DATA_1),
        service: service.into(),
        params,
        forward,
    }
}

pub const ALL_PKGS: &str = r#"for $p in doc("cat-10")//pkg return {$p}"#;
pub const RESOLVE: &str = r#"for $p in doc("cat-10")//pkg for $w in $0/name
    where $p/@name = $w/text() and $p/size/text() > 100000
    return <hit>{$p/@name}</hit>"#;

/// The `query_ship` deployment: six peers, three catalogs at data-1, a
/// four-member generic class, two declarative services, a vault.
pub fn query_ship_system() -> AxmlSystem {
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
        .doc("data-1", "cat-1", catalog(200, 0.01, 1))
        .replica("data-1", "cat-any", "cat-10", c10.clone())
        .doc("data-1", "cat-50", catalog(200, 0.50, 50))
        .doc(
            "data-1",
            "wanted",
            "<want><name>pkg-0003-a</name><name>pkg-0100-ff</name></want>",
        )
        .replica("data-2", "cat-any", "catalog", c10.clone())
        .replica("mirror-1", "cat-any", "catalog", c10.clone())
        .replica("mirror-2", "cat-any", "catalog", c10)
        .service("data-1", "all-pkgs", ALL_PKGS)
        .service("data-1", "resolve", RESOLVE)
        .doc("gateway", "vault", "<vault/>")
        .build()
        .unwrap()
}

pub fn query_ship_shapes() -> Vec<(&'static str, Expr)> {
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

/// Two queries of one name that differ only in their templates, each
/// reading `cat-10` twice, under a query that joins their results: the
/// `pair` query above returning `<p>{$x/@name}</p>` and returning
/// `<q>{$y/size}</q>`. Rule (13) shares the read in each, then in
/// `both`, only if the two `pair·shared` queries ship distinct texts.
#[allow(dead_code)] // read by tests/query_wire.rs alone
pub fn same_named_pairs() -> (&'static str, Expr) {
    let pair = |template: &str| {
        let src = format!(
            r#"for $x in $0//pkg[size > 100000] for $y in $1//pkg[size > 100000]
               where $x/@name = $y/@name return {template}"#
        );
        apply(
            query("pair", &src),
            vec![doc_at("cat-10", DATA_1), doc_at("cat-10", DATA_1)],
        )
    };
    let both = query("both", "for $a in $0 for $b in $1 return <r>{$a}{$b}</r>");
    (
        "qs/same-named-pairs",
        apply(
            both,
            vec![pair("<p>{$x/@name}</p>"), pair("<q>{$y/size}</q>")],
        ),
    )
}

/// Experiment E8's deployment (`crates/bench/src/experiments/e8_optimizer.rs`).
pub fn e8_system() -> AxmlSystem {
    let cat = catalog(400, 0.05, 0xE8);
    let mut sys = AxmlSystem::builder()
        .peers(["client", "data-1", "data-2"])
        .link("client", "data-1", LinkCost::wan())
        .link("client", "data-2", LinkCost::slow())
        .link("data-1", "data-2", LinkCost::lan())
        .doc("data-1", "catalog", cat.clone())
        .replica("data-2", "cat-any", "catalog", cat)
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

pub fn e8_shapes() -> Vec<(&'static str, Expr)> {
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
