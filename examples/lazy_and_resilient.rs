//! Lazy activation, type-driven activation and partition resilience.
//!
//! Run with: `cargo run --example lazy_and_resilient`
//!
//! Three short acts:
//!
//! 1. **Lazy AXML** (§2.2, the \[2\] policy): a portal document embeds
//!    `mode="lazy"` calls to a news service and a stock service; a query
//!    asking only for news fires only the news call — the stock service's
//!    plan says its answers are `<stock>` elements holding text.
//! 2. **Type-driven activation** (the \[6\] policy): the same portal must
//!    reach a schema type that requires at least one `news` element; calls
//!    are activated until it validates.
//! 3. **Partition resilience**: the client–server link fails; the
//!    optimizer reroutes the fetch through a relay peer (rule (12)
//!    right-to-left) and the query still answers.

use axml::core::cost::CostModel;
use axml::prelude::*;
use axml::types::content::Content;

fn main() {
    let mut builder = AxmlSystem::builder()
        .peers(["client", "server", "relay"])
        .link("client", "server", LinkCost::wan())
        .link("client", "relay", LinkCost::lan())
        .link("server", "relay", LinkCost::lan())
        // Server-side data…
        .doc(
            "server",
            "wire",
            r#"<wire><item kind="news">Algebraic optimizers ship</item>
                     <item kind="stock">AXML +42%</item></wire>"#,
        )
        // …and the portal document: two lazy calls.
        .doc(
            "client",
            "portal",
            r#"<portal>
                 <sc mode="lazy"><peer>p1</peer><service>news-svc</service></sc>
                 <sc mode="lazy"><peer>p1</peer><service>stock-svc</service></sc>
               </portal>"#,
        );
    // Two declarative services: what each can answer is read off its plan.
    for (svc, kind) in [("news-svc", "news"), ("stock-svc", "stock")] {
        let src = format!(
            r#"for $i in doc("wire")/item where $i/@kind = "{kind}" return <{kind}>{{$i/text()}}</{kind}>"#
        );
        builder = builder.service("server", svc, &src);
    }
    let mut sys = builder.build().unwrap();
    let client = sys.peer_id("client").unwrap();
    let server = sys.peer_id("server").unwrap();

    // ---- act 1: lazy query evaluation ----------------------------------
    println!("== act 1: lazy activation ==");
    let q = Query::parse("want-news", "$0//news").unwrap();
    let (results, activated) = sys.query_document(client, &"portal".into(), &q).unwrap();
    println!(
        "query `$0//news`: {} result(s), {activated} of 2 lazy calls fired",
        results.len()
    );
    for r in &results {
        println!("  {}", r.serialize());
    }
    assert_eq!(activated, 1, "the stock call never fires");
    println!(
        "{} message(s), {:.1} virtual ms",
        sys.stats().total_messages(),
        sys.now_ms()
    );

    // ---- act 2: type-driven activation ----------------------------------
    println!("\n== act 2: type-driven activation ==");
    let schema = SchemaBuilder::new()
        .ty(
            "PortalT",
            Content::interleave([
                Content::plus(Content::elem("news", "AnyT")),
                Content::plus(Content::elem("stock", "AnyT")),
            ]),
        )
        .ty("AnyT", Content::any())
        .build()
        .unwrap();
    let fired = sys
        .activate_to_type(client, &"portal".into(), &schema, &"PortalT".into())
        .unwrap();
    println!("activated {fired} more call(s) to reach type PortalT");
    let portal = sys.peer(client).docs.get(&"portal".into()).unwrap().tree();
    schema.validate(portal, "PortalT").unwrap();
    println!("portal now validates: {}", portal.serialize());

    // ---- act 3: partition resilience -------------------------------------
    println!("\n== act 3: partition resilience ==");
    sys.net_mut().fail_link(client, server);
    let fetch = Expr::EvalAt {
        peer: server,
        expr: Box::new(Expr::Send {
            dest: SendDest::Peer(client),
            payload: Box::new(Expr::Doc {
                name: "wire".into(),
                at: PeerRef::At(server),
            }),
        }),
    };
    match sys.eval(client, &fetch) {
        Err(e) => println!("direct fetch fails as expected: {e}"),
        Ok(_) => unreachable!("the link is down"),
    }
    let model = CostModel::from_system(&sys);
    // Scope the run report to the rerouted plan: reset both counters, run
    // the search against the system's observer, then execute.
    sys.reset_stats();
    let plan = Optimizer::standard().optimize_with(&model, client, &fetch, sys.obs_mut());
    println!("optimizer reroutes via: {}", plan.trace.join(" → "));
    let out = sys.eval(client, &plan.expr).unwrap();
    println!(
        "fetched {} tree(s) through the relay despite the partition",
        out.len()
    );
    assert_eq!(out.len(), 1);
    println!(
        "\n{}",
        sys.run_report("act 3: rerouted fetch through the relay")
    );
}
