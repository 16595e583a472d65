//! Engine determinism: two fresh builds of one workload from one seed
//! must be *bit-for-bit* indistinguishable — identical result trees,
//! identical final state Σ, identical `NetStats` and `RunReport` — over
//! a matrix of workloads shaped after the experiment suite (E1–E11):
//! remote query application, optimized plans, delegation chains,
//! service calls with parameters and forward lists, deployment, generic
//! references, subscription fan-out and duplicate-heavy fan-in — plus
//! faulted rows (E12-style): seeded drops, outage windows, retries and
//! replica failover must play out identically on every run.
//!
//! Every workload builds its system from its seed, runs it and returns
//! a composite fingerprint: serialized evaluation output + `{:?}` of the
//! Σ snapshot + the `RunReport` JSON (which embeds metrics, per-peer
//! traffic and the reconciliation flag).

use axml_bench::workload::{catalog, naive_apply, selective_query, two_peer};
use axml_core::cost::CostModel;
use axml_core::prelude::*;
use axml_xml::tree::Tree;

/// One workload: builds a system, runs it, and returns the full
/// observable fingerprint for comparison.
type Workload = fn() -> String;

fn seal(sys: AxmlSystem, out: String) -> String {
    format!(
        "out={out}\nsigma={:?}\nreport={}",
        sys.snapshot(),
        sys.run_report("equivalence").to_json()
    )
}

fn forest(trees: &[Tree]) -> String {
    trees.iter().map(Tree::serialize).collect()
}

/// E1: naive remote query application `q(catalog@server)`.
fn w_apply_naive() -> String {
    let (mut sys, client, server) = two_peer(catalog(60, 0.1, 0xD1));
    let e = naive_apply(selective_query(), client, server);
    let out = forest(&sys.eval(client, &e).unwrap());
    seal(sys, out)
}

/// E2: the same request, but through the cost-based optimizer.
fn w_apply_optimized() -> String {
    let (mut sys, client, server) = two_peer(catalog(60, 0.1, 0xD2));
    let naive = naive_apply(selective_query(), client, server);
    let model = CostModel::from_system(&sys);
    let plan = Optimizer::standard().optimize_with(&model, client, &naive, sys.obs_mut());
    let out = forest(&sys.eval(client, &plan.expr).unwrap());
    seal(sys, out)
}

/// E3: a delegation chain — evaluate at the gateway an evaluation at
/// the origin (nested `EvalAt`), the result relayed back hop by hop.
fn w_evalat_chain() -> String {
    let mut sys = AxmlSystem::builder()
        .peers(["edge", "gateway", "origin"])
        .link("edge", "gateway", LinkCost::wan())
        .link("gateway", "origin", LinkCost::wan())
        .doc("origin", "catalog", catalog(40, 0.2, 0xD3))
        .build()
        .unwrap();
    let edge = sys.peer_id("edge").unwrap();
    let gw = sys.peer_id("gateway").unwrap();
    let origin = sys.peer_id("origin").unwrap();
    let e = Expr::EvalAt {
        peer: gw,
        expr: Box::new(Expr::EvalAt {
            peer: origin,
            expr: Box::new(naive_apply(selective_query(), origin, origin)),
        }),
    };
    let out = forest(&sys.eval(edge, &e).unwrap());
    seal(sys, out)
}

/// E6-style: a service call with a computed parameter and a forward
/// list shipping the results to a third peer's log document.
fn w_sc_param_forward() -> String {
    let mut sys = AxmlSystem::builder()
        .peers(["caller", "provider", "archive"])
        .link("caller", "provider", LinkCost::wan())
        .link("provider", "archive", LinkCost::wan())
        .link("caller", "archive", LinkCost::lan())
        .doc("provider", "catalog", catalog(30, 0.3, 0xD4))
        .doc("archive", "log", "<log/>")
        .service(
            "provider",
            "lookup",
            r#"for $p in doc("catalog")//pkg where $p/size/text() > $0/text() return {$p/@name}"#,
        )
        .build()
        .unwrap();
    let caller = sys.peer_id("caller").unwrap();
    let provider = sys.peer_id("provider").unwrap();
    let archive = sys.peer_id("archive").unwrap();
    let log_root = sys
        .peer(archive)
        .docs
        .get(&"log".into())
        .unwrap()
        .tree()
        .root();
    let e = Expr::Sc {
        provider: PeerRef::At(provider),
        service: "lookup".into(),
        params: vec![Expr::Tree {
            tree: Tree::parse("<min>100000</min>").unwrap(),
            at: caller,
        }],
        forward: vec![NodeAddr::new(archive, "log", log_root)],
    };
    let out = forest(&sys.eval(caller, &e).unwrap());
    seal(sys, out)
}

/// E8-style: deploy a query as a service on a remote peer, then call
/// it — a `Seq` plan mixing code shipping and invocation.
fn w_deploy_then_call() -> String {
    let (mut sys, client, server) = two_peer(catalog(25, 0.4, 0xD5));
    let q = selective_query();
    let e = Expr::Seq(vec![
        Expr::Deploy {
            to: server,
            query: LocatedQuery::new(q, client),
            as_service: "select-big".into(),
        },
        Expr::Sc {
            provider: PeerRef::At(server),
            service: "select-big".into(),
            params: vec![Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(server),
            }],
            forward: vec![],
        },
    ]);
    let out = forest(&sys.eval(client, &e).unwrap());
    seal(sys, out)
}

/// Definition (3): install the evaluation result as a new document on
/// another peer (`send(d@p2, e)`).
fn w_send_newdoc() -> String {
    let (mut sys, client, server) = two_peer(catalog(20, 0.5, 0xD6));
    let e = Expr::Send {
        dest: SendDest::NewDoc {
            peer: client,
            name: "mirror".into(),
        },
        payload: Box::new(Expr::Doc {
            name: "catalog".into(),
            at: PeerRef::At(server),
        }),
    };
    let out = forest(&sys.eval(client, &e).unwrap());
    seal(sys, out)
}

/// E5/E10-style: a generic reference resolved against replicas on
/// several mirrors (the pick happens inside the session).
fn w_pick_any() -> String {
    let mut sys = AxmlSystem::builder()
        .peers(["client", "near", "far"])
        .link("client", "near", LinkCost::lan())
        .link("client", "far", LinkCost::slow())
        .build()
        .unwrap();
    let client = sys.peer_id("client").unwrap();
    let near = sys.peer_id("near").unwrap();
    let far = sys.peer_id("far").unwrap();
    let body = catalog(15, 0.2, 0xD7);
    sys.install_replica(far, "cat", "cat-far", body.clone())
        .unwrap();
    sys.install_replica(near, "cat", "cat-near", body).unwrap();
    let e = Expr::Doc {
        name: "cat".into(),
        at: PeerRef::Any,
    };
    let out = forest(&sys.eval(client, &e).unwrap());
    seal(sys, out)
}

/// E9 series 1: subscription fan-out — n clients activate an inbox
/// `sc` against one provider, which then feeds two items. The n
/// same-burst deliveries exercise the engine's tie-breaking PRNG.
fn w_fanout_feed() -> String {
    let n = 4;
    let mut builder = AxmlSystem::builder()
        .peer("provider")
        .doc("provider", "feed", "<feed/>")
        .service(
            "provider",
            "items",
            r#"for $i in doc("feed")/item return {$i}"#,
        );
    for i in 0..n {
        let name = format!("client-{i}");
        builder = builder
            .peer(name.clone())
            .link("provider", name.as_str(), LinkCost::wan())
            .doc(
                name.as_str(),
                "inbox",
                r#"<inbox><sc><peer>p0</peer><service>items</service></sc></inbox>"#,
            );
    }
    let mut sys = builder.seed(0xD8).build().unwrap();
    let provider = sys.peer_id("provider").unwrap();
    for i in 0..n {
        let c = sys.peer_id(&format!("client-{i}")).unwrap();
        sys.activate_document(c, &"inbox".into()).unwrap();
    }
    let mut delivered = 0;
    for item in ["<item>alpha</item>", "<item>beta</item>"] {
        delivered += sys
            .feed(provider, "feed", Tree::parse(item).unwrap())
            .unwrap();
    }
    seal(sys, format!("delivered={delivered}"))
}

/// E9 series 3 shape: duplicate-heavy fan-in — one tree fires many
/// *identical* calls at one provider. The provider evaluates them once
/// and reuses the answer; the observable outcome must not change at all.
fn w_fanin_collapse() -> String {
    let mut sys = AxmlSystem::builder()
        .peers(["coord", "provider"])
        .link("coord", "provider", LinkCost::wan())
        .doc("provider", "catalog", catalog(50, 0.1, 0xD9))
        .service(
            "provider",
            "scan",
            r#"for $p in doc("catalog")//pkg where $p/size/text() > 100000 return {$p/@name}"#,
        )
        .seed(0xD9)
        .build()
        .unwrap();
    let coord = sys.peer_id("coord").unwrap();
    let mut batch = String::from("<batch>");
    for _ in 0..6 {
        batch.push_str("<sc><peer>p1</peer><service>scan</service></sc>");
    }
    batch.push_str("</batch>");
    let e = Expr::Tree {
        tree: Tree::parse(&batch).unwrap(),
        at: coord,
    };
    let out = forest(&sys.eval(coord, &e).unwrap());
    seal(sys, out)
}

/// A `Seq` plan mixing every shape above in one session.
fn w_seq_mixed() -> String {
    let (mut sys, client, server) = two_peer(catalog(30, 0.2, 0xDA));
    let q = selective_query();
    let e = Expr::Seq(vec![
        Expr::Deploy {
            to: server,
            query: LocatedQuery::new(q.clone(), client),
            as_service: "sel".into(),
        },
        Expr::Sc {
            provider: PeerRef::At(server),
            service: "sel".into(),
            params: vec![Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(server),
            }],
            forward: vec![],
        },
        Expr::EvalAt {
            peer: server,
            expr: Box::new(naive_apply(q, server, server)),
        },
    ]);
    let out = forest(&sys.eval(client, &e).unwrap());
    seal(sys, out)
}

/// Faulted E12-style: repeated remote fetches through a lossy link
/// (10% seeded drops + jitter) with the standard retry policy. Every
/// run must observe the *same* drops at the same attempts: same
/// outcomes, same retry counters, same `NetStats` (the report JSON in
/// the fingerprint embeds all three, drop maps included).
fn w_faulted_fetch() -> String {
    let (mut sys, client, server) = two_peer(catalog(30, 0.2, 0xDB));
    sys.set_retry_policy(RetryPolicy::standard());
    sys.net_mut()
        .set_fault_plan(FaultPlan::new(0xFA_117).drop_prob(0.10).jitter_ms(0.5));
    let e = Expr::Doc {
        name: "catalog".into(),
        at: PeerRef::At(server),
    };
    let out: String = (0..10)
        .map(|i| match sys.eval(client, &e) {
            Ok(f) => format!("[{i} ok {}]", forest(&f)),
            Err(err) => format!("[{i} err {err}]"),
        })
        .collect();
    seal(sys, out)
}

/// Faulted generic references: `cat@any` over two mirrors while the
/// route to the near one blinks through outage windows — failover
/// re-picks the far mirror. The failover decisions (and their trace
/// counters) must be identical on every run.
fn w_faulted_failover() -> String {
    let mut sys = AxmlSystem::builder()
        .peers(["client", "near", "far"])
        .link("client", "near", LinkCost::lan())
        .link("client", "far", LinkCost::wan())
        .build()
        .unwrap();
    sys.set_retry_policy(RetryPolicy::standard());
    sys.set_failover(true);
    let client = sys.peer_id("client").unwrap();
    let near = sys.peer_id("near").unwrap();
    let far = sys.peer_id("far").unwrap();
    let body = catalog(15, 0.2, 0xDC);
    sys.install_replica(near, "cat", "cat-near", body.clone())
        .unwrap();
    sys.install_replica(far, "cat", "cat-far", body).unwrap();
    let mut plan = FaultPlan::new(0xFA_118).drop_prob(0.05);
    for k in 0..8 {
        let start = 20.0 + 600.0 * k as f64;
        plan = plan.outage_directed(client, near, start, start + 300.0);
    }
    sys.net_mut().set_fault_plan(plan);
    let e = Expr::Doc {
        name: "cat".into(),
        at: PeerRef::Any,
    };
    let out: String = (0..10)
        .map(|i| match sys.eval(client, &e) {
            Ok(f) => format!("[{i} ok {}]", forest(&f)),
            Err(err) => format!("[{i} err {err}]"),
        })
        .collect();
    seal(sys, out)
}

const WORKLOADS: &[(&str, Workload)] = &[
    ("apply-naive", w_apply_naive),
    ("apply-optimized", w_apply_optimized),
    ("evalat-chain", w_evalat_chain),
    ("sc-param-forward", w_sc_param_forward),
    ("deploy-then-call", w_deploy_then_call),
    ("send-newdoc", w_send_newdoc),
    ("pick-any", w_pick_any),
    ("fanout-feed", w_fanout_feed),
    ("fanin-collapse", w_fanin_collapse),
    ("seq-mixed", w_seq_mixed),
    ("faulted-fetch", w_faulted_fetch),
    ("faulted-failover", w_faulted_failover),
];

#[test]
fn two_fresh_builds_from_one_seed_give_one_fingerprint() {
    for (name, w) in WORKLOADS {
        assert_eq!(w(), w(), "workload `{name}` diverged between two builds");
    }
}

#[test]
fn collapsing_actually_happens_on_duplicate_fanin() {
    let mut sys = AxmlSystem::builder()
        .peers(["coord", "provider"])
        .link("coord", "provider", LinkCost::wan())
        .doc("provider", "catalog", catalog(50, 0.1, 0xD9))
        .service(
            "provider",
            "scan",
            r#"for $p in doc("catalog")//pkg where $p/size/text() > 100000 return {$p/@name}"#,
        )
        .build()
        .unwrap();
    let coord = sys.peer_id("coord").unwrap();
    let mut batch = String::from("<batch>");
    for _ in 0..6 {
        batch.push_str("<sc><peer>p1</peer><service>scan</service></sc>");
    }
    batch.push_str("</batch>");
    sys.eval(
        coord,
        &Expr::Tree {
            tree: Tree::parse(&batch).unwrap(),
            at: coord,
        },
    )
    .unwrap();
    let m = sys.metrics();
    assert_eq!(
        (m.service_calls, m.service_reuses),
        (6, 5),
        "6 identical calls should run the service once"
    );
}

/// Determinism stress: every workload, rebuilt and rerun five times.
/// Slow by design — run with `cargo test -- --ignored`.
#[test]
#[ignore = "stress loop; run explicitly via tier1.sh"]
fn determinism_stress_loop() {
    for (name, w) in WORKLOADS {
        let reference = w();
        for rep in 0..5 {
            assert_eq!(reference, w(), "workload `{name}` rep {rep} diverged");
        }
    }
}
