//! End-to-end integration tests spanning all five crates: typed schemas,
//! the query language, the network simulator, the AXML algebra and the
//! optimizer, exercised together on realistic scenarios.

use axml::prelude::*;
use axml::types::content::Content;
use axml::xml::tree::Tree;
use axml::xml::Label;

/// The catalog schema used throughout (axml-types over axml-xml).
fn catalog_schema() -> Schema {
    SchemaBuilder::new()
        .ty("CatalogT", Content::star(Content::elem("pkg", "PkgT")))
        .ty(
            "PkgT",
            Content::seq([
                Content::elem("version", "TextT"),
                Content::elem("size", "TextT"),
            ]),
        )
        .ty("TextT", Content::opt(Content::Text))
        .build()
        .unwrap()
}

fn catalog(n: usize) -> Tree {
    let mut xml = String::from("<catalog>");
    for i in 0..n {
        xml.push_str(&format!(
            r#"<pkg name="pkg-{i}"><version>1.{}</version><size>{}</size></pkg>"#,
            i % 5,
            (i * 211) % 50_000
        ));
    }
    xml.push_str("</catalog>");
    Tree::parse(&xml).unwrap()
}

#[test]
fn typed_catalog_distribution() {
    let schema = catalog_schema();
    let cat = catalog(50);
    schema.validate(&cat, "CatalogT").expect("catalog is valid");

    // A declarative service: its output type is read off its plan.
    let src = r#"for $p in doc("catalog")//pkg where $p/@name = $0/text() return {$p/version}"#;
    let tau_out = Query::parse("lookup", src).unwrap().plan().answers();
    assert_eq!(tau_out.root.labels, [Label::new("version")]);
    let sample = Tree::parse("<want>pkg-7</want>").unwrap();

    let mut sys = AxmlSystem::builder()
        .peers(["a", "b"])
        .link("a", "b", LinkCost::wan())
        .doc("b", "catalog", cat)
        .service("b", "lookup", src)
        .build()
        .unwrap();
    let (a, b) = (sys.peer_id("a").unwrap(), sys.peer_id("b").unwrap());

    let out = sys
        .eval(
            a,
            &Expr::Sc {
                provider: PeerRef::At(b),
                service: "lookup".into(),
                params: vec![Expr::Tree {
                    tree: sample,
                    at: a,
                }],
                forward: vec![],
            },
        )
        .unwrap();
    assert_eq!(out.len(), 1);
    // …and the response is what the plan says it can be, and validates.
    assert!(tau_out.root.has(out[0].label(out[0].root()).unwrap()));
    schema
        .validate(&out[0], "TextT")
        .expect("the response's content validates");
}

#[test]
fn three_peer_pipeline_with_forward_lists() {
    // source → filter service → archive, with the archive never talking
    // to the source directly (results routed by forward lists).
    let mut sys = AxmlSystem::builder()
        .peers(["coordinator", "data", "archive"])
        .link("coordinator", "data", LinkCost::wan())
        .link("coordinator", "archive", LinkCost::wan())
        .link("data", "archive", LinkCost::lan())
        .doc("data", "catalog", catalog(100))
        .service(
            "data",
            "big-pkgs",
            r#"for $p in doc("catalog")//pkg where $p/size/text() > 15000 return {$p}"#,
        )
        .doc("archive", "vault", "<vault/>")
        .build()
        .unwrap();
    let coordinator = sys.peer_id("coordinator").unwrap();
    let data = sys.peer_id("data").unwrap();
    let archive = sys.peer_id("archive").unwrap();
    let vault_root = sys
        .peer(archive)
        .docs
        .get(&"vault".into())
        .unwrap()
        .tree()
        .root();

    // The coordinator fires the call; results flow data → archive only.
    let out = sys
        .eval(
            coordinator,
            &Expr::Sc {
                provider: PeerRef::At(data),
                service: "big-pkgs".into(),
                params: vec![],
                forward: vec![NodeAddr::new(archive, "vault", vault_root)],
            },
        )
        .unwrap();
    assert!(out.is_empty());
    let vault = sys.peer(archive).docs.get(&"vault".into()).unwrap().tree();
    let stored = vault.children(vault.root()).len();
    assert!(stored > 0, "selected packages archived");
    assert_eq!(
        sys.stats().link(data, coordinator).messages,
        0,
        "no data flowed back to the coordinator"
    );
    assert!(sys.stats().link(data, archive).bytes > 0);
}

#[test]
fn replicated_generic_documents_with_policies() {
    let build = |policy: PickPolicy| {
        AxmlSystem::builder()
            .peers(["client", "far", "near"])
            .link("client", "far", LinkCost::slow())
            .link("client", "near", LinkCost::lan())
            .link("far", "near", LinkCost::wan())
            .replica("far", "cat", "catalog", catalog(80))
            .replica("near", "cat", "catalog", catalog(80))
            .pick_policy(policy)
            .build()
            .unwrap()
    };
    let e = Expr::Doc {
        name: "cat".into(),
        at: PeerRef::Any,
    };
    let mut first = build(PickPolicy::First);
    let v1 = first.eval(PeerId(0), &e).unwrap();
    let mut closest = build(PickPolicy::Closest);
    let v2 = closest.eval(PeerId(0), &e).unwrap();
    assert!(forest_equiv(&v1, &v2), "replicas are equivalent");
    assert!(
        closest.stats().makespan_ms() < first.stats().makespan_ms() / 5.0,
        "closest pick is much faster: {} vs {}",
        closest.stats().makespan_ms(),
        first.stats().makespan_ms()
    );
}

#[test]
fn code_shipping_then_continuous_use() {
    // Deploy a query as a service on the data peer (definition (8)),
    // then subscribe to it from another peer and stream updates.
    let mut sys = AxmlSystem::builder()
        .peers(["dev", "data", "watcher"])
        .link("dev", "data", LinkCost::wan())
        .link("watcher", "data", LinkCost::wan())
        .doc("data", "events", "<events/>")
        .build()
        .unwrap();
    let dev = sys.peer_id("dev").unwrap();
    let data = sys.peer_id("data").unwrap();
    let watcher = sys.peer_id("watcher").unwrap();

    let monitor = Query::parse(
        "monitor",
        r#"for $e in doc("events")/event where $e/@level = "error" return {$e}"#,
    )
    .unwrap();
    sys.eval(
        dev,
        &Expr::Deploy {
            to: data,
            query: LocatedQuery::new(monitor, dev),
            as_service: "error-feed".into(),
        },
    )
    .unwrap();

    sys.install_doc(
        watcher,
        "dashboard",
        Tree::parse(
            r#"<dashboard><sc><peer>p1</peer><service>error-feed</service></sc></dashboard>"#,
        )
        .unwrap(),
    )
    .unwrap();
    sys.activate_document(watcher, &"dashboard".into()).unwrap();

    for (level, n) in [("info", 0usize), ("error", 1), ("error", 1), ("warn", 0)] {
        let delivered = sys
            .feed(
                data,
                "events",
                Tree::parse(&format!(r#"<event level="{level}"><msg>x</msg></event>"#)).unwrap(),
            )
            .unwrap();
        assert_eq!(delivered, n, "level {level}");
    }
    let dash = sys
        .peer(watcher)
        .docs
        .get(&"dashboard".into())
        .unwrap()
        .tree();
    assert_eq!(dash.descendants_labeled(dash.root(), "event").count(), 2);
}

#[test]
fn optimizer_consistency_across_topologies() {
    use axml::core::cost::CostModel;
    // For every topology, the optimizer's plan must match the naive plan's
    // answer and never measure worse in total bytes.
    let topologies: Vec<(&str, Topology)> = vec![
        (
            "uniform-wan",
            Topology::Uniform {
                n: 4,
                cost: LinkCost::wan(),
            },
        ),
        (
            "star",
            Topology::Star {
                n: 4,
                spoke: LinkCost::wan(),
            },
        ),
        (
            "two-clusters",
            Topology::Clustered {
                clusters: vec![2, 2],
                intra: LinkCost::lan(),
                inter: LinkCost::slow(),
            },
        ),
    ];
    for (name, topo) in topologies {
        let build = || {
            AxmlSystem::builder()
                .topology(&topo)
                .doc("p3", "catalog", catalog(150))
                .build()
                .unwrap()
        };
        let q = Query::parse(
            "sel",
            r#"for $p in $0//pkg where $p/size/text() > 45000 return <r>{$p/@name}</r>"#,
        )
        .unwrap();
        let naive = Expr::Apply {
            query: LocatedQuery::new(q, PeerId(0)),
            args: vec![Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(PeerId(3)),
            }],
        };
        let sys = build();
        let model = CostModel::from_system(&sys);
        let plan = Optimizer::standard().optimize(&model, PeerId(0), &naive);
        let mut s1 = build();
        let mut s2 = build();
        let v1 = s1.eval(PeerId(0), &naive).unwrap();
        let v2 = s2.eval(PeerId(0), &plan.expr).unwrap();
        assert!(forest_equiv(&v1, &v2), "{name}: answers differ");
        assert!(
            s2.stats().total_bytes() <= s1.stats().total_bytes(),
            "{name}: optimized plan measured worse"
        );
    }
}
