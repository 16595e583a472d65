//! Distributed query optimization, rule by rule.
//!
//! Run with: `cargo run --example distributed_query`
//!
//! Walks through the paper's §3.3 equivalence rules on concrete
//! scenarios, printing for each the naive plan, the rewritten plan, the
//! rule trace, and the measured traffic of both. The scenarios are the
//! same shapes the benchmark suite sweeps (see EXPERIMENTS.md).

use axml::core::cost::CostModel;
use axml::core::rules;
use axml::prelude::*;
use axml::xml::tree::Tree;

fn catalog(n: usize) -> Tree {
    let mut xml = String::from("<catalog>");
    for i in 0..n {
        xml.push_str(&format!(
            r#"<pkg name="pkg-{i}"><size>{}</size><desc>package number {i} of the demo catalog</desc></pkg>"#,
            (i * 61) % 10_000
        ));
    }
    xml.push_str("</catalog>");
    Tree::parse(&xml).unwrap()
}

/// Evaluate a plan on a fresh system, returning (results, bytes, ms).
fn measure(build: &dyn Fn() -> AxmlSystem, site: PeerId, e: &Expr) -> (usize, u64, f64) {
    let mut sys = build();
    let out = sys.eval(site, e).unwrap();
    (
        out.len(),
        sys.stats().total_bytes(),
        sys.stats().makespan_ms(),
    )
}

fn show(title: &str, build: &dyn Fn() -> AxmlSystem, site: PeerId, naive: &Expr) {
    println!("\n————— {title} —————");
    let (n1, b1, t1) = measure(build, site, naive);
    // Search and measure the optimized plan on one system with metrics
    // flowing, so the report carries the rule-application counters too.
    let mut sys2 = build();
    let model = CostModel::from_system(&sys2);
    let plan = Optimizer::standard().optimize_with(&model, site, naive, sys2.obs_mut());
    let out2 = sys2.eval(site, &plan.expr).unwrap();
    let (n2, b2, t2) = (
        out2.len(),
        sys2.stats().total_bytes(),
        sys2.stats().makespan_ms(),
    );
    assert_eq!(n1, n2, "optimizer must preserve answers");
    println!("naive:     {naive}");
    println!("optimized: {}", plan.expr);
    println!(
        "rules:     {}",
        if plan.trace.is_empty() {
            "(none applicable)".to_string()
        } else {
            plan.trace.join(" → ")
        }
    );
    println!("results:   {n1} trees");
    println!("naive      {b1:>9} B  {t1:>9.1} ms");
    println!(
        "optimized  {b2:>9} B  {t2:>9.1} ms   ({:.1}x bytes)",
        b1 as f64 / b2.max(1) as f64
    );
    println!("{}", sys2.run_report(format!("{title} — optimized plan")));
}

fn main() {
    let a = PeerId(0);
    let b = PeerId(1);
    let c = PeerId(2);

    // ---- scenario 1: pushing selections (Example 1, rules 10+11) -------
    // Example 1 splits the query and ships only the selected packages
    // (rule 11, then rule 10 on the selection). Delegating the whole query
    // (rule 10) ships the constructed hits instead, which are smaller than
    // the packages they are built from, so that is the plan printed:
    // `eval@p1(send(p0, sel/1@p0(catalog@p1)))`.
    let build1 = || {
        AxmlSystem::builder()
            .peers(["client", "data"])
            .link("client", "data", LinkCost::wan())
            .doc("data", "catalog", catalog(400))
            .build()
            .unwrap()
    };
    let sel = Query::parse(
        "sel",
        r#"for $p in $0//pkg where $p/size/text() > 9000 return <hit>{$p/@name}</hit>"#,
    )
    .unwrap();
    show(
        "Example 1: pushing selections over a WAN",
        &build1,
        a,
        &Expr::Apply {
            query: LocatedQuery::new(sel, a),
            args: vec![Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(b),
            }],
        },
    );

    // ---- scenario 2: rule 16, pushing a query over a service call ------
    // Rule (14) relocating the whole query to the provider ships what
    // rule (16) would, and is found first:
    // `eval@p1(send(p0, fmt/1@p0(sc(p1, all-pkgs, [], []))))`.
    let build2 = || {
        let mut sys = build1();
        sys.register_declarative_service(
            PeerId(1),
            "all-pkgs",
            r#"for $p in doc("catalog")//pkg return {$p}"#,
        )
        .unwrap();
        sys
    };
    let fmt = Query::parse(
        "fmt",
        r#"for $t in $0 where $t/size/text() > 9000 return <w>{$t/@name}</w>"#,
    )
    .unwrap();
    show(
        "Rule 16: pushing a query over a service call",
        &build2,
        a,
        &Expr::Apply {
            query: LocatedQuery::new(fmt, a),
            args: vec![Expr::Sc {
                provider: PeerRef::At(b),
                service: "all-pkgs".into(),
                params: vec![],
                forward: vec![],
            }],
        },
    );

    // ---- scenario 3: rule 12 R2L, relaying through a gateway -----------
    let build3 = || {
        AxmlSystem::builder()
            .peers(["edge", "origin", "gateway"])
            // terrible direct link, good links via the gateway
            .link(
                "edge",
                "origin",
                LinkCost {
                    latency_ms: 400.0,
                    bytes_per_ms: 20.0,
                    per_msg_bytes: 256,
                },
            )
            .link("edge", "gateway", LinkCost::lan())
            .link("origin", "gateway", LinkCost::lan())
            .doc("origin", "catalog", catalog(200))
            .build()
            .unwrap()
    };
    show(
        "Rule 12 (R→L): data in transit stops at a gateway",
        &build3,
        a,
        &Expr::EvalAt {
            peer: b,
            expr: Box::new(Expr::Send {
                dest: SendDest::Peer(a),
                payload: Box::new(Expr::Doc {
                    name: "catalog".into(),
                    at: PeerRef::At(b),
                }),
            }),
        },
    );

    // ---- scenario 4: rule 13, sharing a repeated transfer ---------------
    let build4 = build1;
    let join = Query::parse(
        "selfjoin",
        r#"for $x in $0//pkg for $y in $1//pkg
           where $x/size/text() = $y/size/text() and $x/@name != $y/@name
           return <dup a="{$x/@name}" b="{$y/@name}"/>"#,
    )
    .unwrap();
    let remote = Expr::Doc {
        name: "catalog".into(),
        at: PeerRef::At(b),
    };
    show(
        "Rule 13: sharing one transfer between two uses",
        &build4,
        a,
        &Expr::Apply {
            query: LocatedQuery::new(join, a),
            args: vec![remote.clone(), remote],
        },
    );

    // ---- scenario 5: rule 9, replica choice ------------------------------
    let build5 = || {
        AxmlSystem::builder()
            .peers(["client", "far-mirror", "near-mirror"])
            .link("client", "far-mirror", LinkCost::slow())
            .link("client", "near-mirror", LinkCost::lan())
            .link("far-mirror", "near-mirror", LinkCost::wan())
            .replica("far-mirror", "cat", "catalog", catalog(200))
            .replica("near-mirror", "cat", "catalog", catalog(200))
            .pick_policy(PickPolicy::First) // naive: first registered (far!)
            .build()
            .unwrap()
    };
    show(
        "Rule 9: generic document, replica selection",
        &build5,
        a,
        &Expr::Doc {
            name: "cat".into(),
            at: PeerRef::Any,
        },
    );
    let _ = c;

    // ---- scenario 6: duplicate fan-in -----------------------------------
    // Eight identical calls fan in on one provider, which evaluates the
    // service once and reuses the answer for the other seven.
    println!("\n————— Duplicate fan-in is reused —————");
    let mut sys = AxmlSystem::builder()
        .peers(["coord", "provider"])
        .link("coord", "provider", LinkCost::wan())
        .doc("provider", "catalog", catalog(800))
        .service(
            "provider",
            "scan",
            r#"for $p in doc("catalog")//pkg where $p/size/text() > 9000 return {$p/@name}"#,
        )
        .build()
        .unwrap();
    let batch: String = std::iter::once("<batch>".to_string())
        .chain((0..8).map(|_| "<sc><peer>p1</peer><service>scan</service></sc>".to_string()))
        .chain(std::iter::once("</batch>".to_string()))
        .collect();
    let e = Expr::Tree {
        tree: Tree::parse(&batch).unwrap(),
        at: a,
    };
    sys.eval(a, &e).unwrap();
    let m = sys.metrics();
    println!(
        "{} msgs  {} B on the wire  {} of {} call(s) reused",
        sys.stats().total_messages(),
        sys.stats().total_bytes(),
        m.service_reuses,
        m.service_calls
    );
    assert_eq!((m.service_calls, m.service_reuses), (8, 7));

    // ---- rule inventory --------------------------------------------------
    println!("\nactive rule set:");
    for r in rules::standard_rules() {
        println!("  {}", r.name());
    }
}
