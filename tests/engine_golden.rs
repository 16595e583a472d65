//! Pinned engine behaviour *across commits*.
//!
//! The equivalence suites (`engine_determinism`, `transport_equivalence`,
//! `chaos`, `trace_determinism`) compare two runs of the same build, so
//! they cannot see a refactor that changes both sides the same way. This
//! test pins, for a fixed-seed scenario set, digests recorded once on a
//! known-good commit: the sorted `canonical_hash`es of every result
//! forest, the `NetStats` totals, the `EvalMetrics` definition / retry /
//! failover counters, the final virtual clock, and the FNV-1a of the
//! whole `BinSink` byte stream (every event with its timestamps).
//!
//! The scenarios cover definitions (1)–(9), forward lists, delegation,
//! sequencing, `@after` chains, lazy activation, replica maintenance, a
//! retried drop, a document-class failover and a service-class failover.
//!
//! Each scenario must reproduce its pinned row. A mismatch prints the
//! drifted rows; re-pin them only for a change that is *meant* to alter
//! observable engine behaviour.

use axml::net::frame::fnv1a64;
use axml::prelude::*;
use axml::xml::equiv::canonical_hash;
use axml::xml::tree::Tree;
use std::fmt::Write as _;

/// One pinned row: scenario name, scenario, digest.
type Pinned = (&'static str, fn() -> String, &'static str);

/// Digests recorded on commit f0c5c6b (PR 11), before the engine split.
/// PR 16 re-pinned the `continuous` row's `trace=` hash (same length, every
/// other field as recorded): `SubscriptionDelta.suppressed` counts trees
/// evaluated and found already delivered, and a feed's pump that evaluates
/// the appended child alone no longer evaluates them.
/// The `results=` column was re-pinned once when `canonical_hash` became
/// the canonical digest walk under a fixed key (the hash a fetch request
/// carries as its `ref`): the hashes it folds moved, and nothing else did —
/// the `ref` is fixed-width hex, so messages, bytes, clock and trace kept
/// their values.
#[rustfmt::skip]
const GOLDEN: [Pinned; 6] = [
    ("algebra", algebra, "results=c2304751e1de2c46 msgs=43 bytes=12140 dropped=0 defs=[(1, 21), (2, 4), (3, 3), (4, 2), (5, 9), (6, 9), (7, 1), (8, 1)] calls=9 retries=0 failovers=0 now=409da6a53b8e4b88 trace=fb4f91c9dbf34d11/6904"),
    ("generic_picks", generic_picks, "results=595ab719c48b29b9 msgs=60 bytes=6990 dropped=0 defs=[(1, 32), (5, 15), (6, 16), (9, 33)] calls=16 retries=0 failovers=0 now=406f69bab21815a2 trace=c1aa07d420c785f8/9693"),
    ("retried_drop", retried_drop, "results=fc8863e886469326 msgs=39 bytes=12287 dropped=17 defs=[(1, 10), (5, 10), (6, 10)] calls=10 retries=16 failovers=0 now=40a17328dca2a610 trace=55a3234c1b83c01e/6091"),
    ("doc_failover", doc_failover, "results=9e6d9a1709592d9d msgs=24 bytes=3552 dropped=3 defs=[(1, 12), (5, 13), (9, 13)] calls=0 retries=9 failovers=1 now=407dc29ec721e9e0 trace=b37c1d50dfdcb801/4005"),
    ("service_failover", service_failover, "results=516b54a9c782d3a5 msgs=32 bytes=2720 dropped=0 defs=[(1, 16), (6, 17), (9, 17)] calls=17 retries=6 failovers=1 now=4084d8003b2c8102 trace=d49d4d646e5717e2/5630"),
    ("continuous", continuous, "results=5b9e5a18545800fe msgs=16 bytes=3775 dropped=0 defs=[(6, 1)] calls=5 retries=0 failovers=0 now=40741d013a92a305 trace=d23f72dbdca895e6/1713"),
];

const CATALOG: &str = concat!(
    r#"<catalog><pkg name="vim"><size>4000</size></pkg>"#,
    r#"<pkg name="emacs"><size>90000</size></pkg>"#,
    r#"<pkg name="ed"><size>120</size></pkg></catalog>"#
);

/// One scenario run: the system plus the transcript of per-op outcomes.
struct Run {
    sys: AxmlSystem,
    trace: SharedBuf,
    outcomes: String,
}

impl Run {
    fn new(mut sys: AxmlSystem) -> Self {
        let trace = SharedBuf::new();
        sys.set_trace_sink(Box::new(BinSink::new(trace.clone())));
        Run {
            sys,
            trace,
            outcomes: String::new(),
        }
    }

    /// Record a forest as its sorted canonical hashes, an error as its
    /// `Display` text.
    fn forest(&mut self, r: CoreResult<Vec<Tree>>) {
        match r {
            Ok(f) => {
                let mut hashes: Vec<u64> = f.iter().map(|t| canonical_hash(t, t.root())).collect();
                hashes.sort_unstable();
                writeln!(self.outcomes, "ok {hashes:016x?}").unwrap();
            }
            Err(e) => writeln!(self.outcomes, "err {e}").unwrap(),
        }
    }

    fn eval(&mut self, at: PeerId, e: &Expr) {
        let r = self.sys.eval(at, e);
        self.forest(r);
    }

    fn note(&mut self, what: impl std::fmt::Display) {
        writeln!(self.outcomes, "{what}").unwrap();
    }

    /// Record the current content of a hosted document.
    fn doc(&mut self, at: PeerId, name: &str) {
        let t = self.sys.peer(at).docs.get(&name.into()).unwrap().tree();
        let h = canonical_hash(t, t.root());
        writeln!(self.outcomes, "doc {name}@{} {h:016x}", at.0).unwrap();
    }

    /// The digest line for this run.
    fn digest(mut self) -> String {
        self.sys.clear_trace_sink().unwrap();
        let m = self.sys.metrics();
        let st = self.sys.stats();
        let report = self.sys.run_report("golden");
        assert!(report.reconciled, "metrics must reconcile with NetStats");
        let bytes = self.trace.bytes();
        format!(
            "results={:016x} msgs={} bytes={} dropped={} defs={:?} calls={} retries={} \
             failovers={} now={:016x} trace={:016x}/{}",
            fnv1a64(self.outcomes.as_bytes()),
            st.total_messages(),
            st.total_bytes(),
            st.total_dropped(),
            m.defs(),
            m.service_calls,
            m.retries,
            m.failovers,
            self.sys.now_ms().to_bits(),
            fnv1a64(&bytes),
            bytes.len(),
        )
    }
}

fn tree(xml: &str) -> Tree {
    Tree::parse(xml).unwrap()
}

fn lit(xml: &str, at: PeerId) -> Expr {
    Expr::Tree {
        tree: tree(xml),
        at,
    }
}

fn doc_at(name: &str, at: PeerId) -> Expr {
    Expr::Doc {
        name: name.into(),
        at: PeerRef::At(at),
    }
}

fn root_addr(sys: &AxmlSystem, at: PeerId, doc: &str) -> NodeAddr {
    let root = sys.peer(at).docs.get(&doc.into()).unwrap().tree().root();
    NodeAddr::new(at, doc, root)
}

/// Definitions (1)–(8), forward lists, delegation and sequencing on a
/// fault-free four-peer network.
fn algebra() -> String {
    let sys = AxmlSystem::builder()
        .peers(["p0", "p1", "p2", "p3"])
        .link("p0", "p1", LinkCost::wan())
        .link("p0", "p2", LinkCost::lan())
        .link("p1", "p2", LinkCost::wan())
        .link("p0", "p3", LinkCost::slow())
        .link("p1", "p3", LinkCost::lan())
        .doc("p1", "catalog", CATALOG)
        .doc("p1", "data", "<data><n>5</n><n>9</n><n>12</n></data>")
        .doc("p2", "vault", "<vault/>")
        .doc("p3", "log", "<log><slot/></log>")
        .service("p1", "names", r#"doc("catalog")//pkg/@name"#)
        .service(
            "p1",
            "over",
            r#"for $n in doc("data")/n where $n/text() > $0/text() return {$n}"#,
        )
        .seed(0x601D_0001)
        .build()
        .unwrap();
    let [p0, p1, p2, p3] = ["p0", "p1", "p2", "p3"].map(|n| sys.peer_id(n).unwrap());
    let vault = root_addr(&sys, p2, "vault");
    let log = root_addr(&sys, p3, "log");
    let mut r = Run::new(sys);

    // (1) plain tree; (1)+(6) tree with embedded calls, one forwarded.
    r.eval(p0, &lit("<a><b>x</b><c/></a>", p0));
    r.eval(
        p0,
        &lit(
            &format!(
                "<page><sc><peer>p1</peer><service>over</service>\
                 <param1><min>6</min></param1></sc>\
                 <side><sc><peer>p1</peer><service>names</service>\
                 <forw>vault#{}@p2</forw></sc></side></page>",
                vault.node.index()
            ),
            p0,
        ),
    );
    // (2) local query.
    let sel = Query::parse("sel", "for $x in $0//v return <out>{$x/text()}</out>").unwrap();
    r.eval(
        p0,
        &Expr::Apply {
            query: LocatedQuery::new(sel.clone(), p0),
            args: vec![lit("<in><v>1</v><v>2</v></in>", p0)],
        },
    );
    // (3) send to a peer; (4) send to a node list; send to a new doc.
    r.eval(
        p0,
        &Expr::Send {
            dest: SendDest::Peer(p1),
            payload: Box::new(lit("<payload>data</payload>", p0)),
        },
    );
    r.eval(
        p0,
        &Expr::Send {
            dest: SendDest::Nodes(vec![vault.clone(), log.clone()]),
            payload: Box::new(lit("<x/>", p0)),
        },
    );
    r.eval(
        p0,
        &Expr::Send {
            dest: SendDest::NewDoc {
                peer: p2,
                name: "fresh".into(),
            },
            payload: Box::new(doc_at("data", p1)),
        },
    );
    // (5) remote document and remote literal tree.
    r.eval(p0, &doc_at("catalog", p1));
    r.eval(p0, &lit("<far><v>3</v></far>", p3));
    // (6) service calls: parameter expression, forward list, local provider.
    let over = |provider, forward| Expr::Sc {
        provider: PeerRef::At(provider),
        service: "over".into(),
        params: vec![lit("<min>6</min>", p0)],
        forward,
    };
    r.eval(p0, &over(p1, vec![]));
    r.eval(p0, &over(p1, vec![log, vault.clone()]));
    r.eval(p1, &over(p1, vec![]));
    // Duplicate fan-in: the same call twice in one wave (the provider's
    // call memo reuses the answer; the observable run must not change).
    let both = Query::parse("both", "for $x in $0 return {$x}").unwrap();
    r.eval(p0, &Expr::Seq(vec![over(p1, vec![]), over(p1, vec![])]));
    r.eval(
        p2,
        &Expr::Apply {
            query: LocatedQuery::new(both, p2),
            args: vec![Expr::Sc {
                provider: PeerRef::At(p1),
                service: "names".into(),
                params: vec![],
                forward: vec![],
            }],
        },
    );
    // (7) remote query definition over a remote argument.
    r.eval(
        p0,
        &Expr::Apply {
            query: LocatedQuery::new(sel, p3),
            args: vec![Expr::Tree {
                tree: tree("<in><v>7</v><v>8</v></in>"),
                at: p1,
            }],
        },
    );
    // (8) code shipping, then a call of the deployed service.
    let wrap = Query::parse("wrap", "for $x in $0 return <wrapped>{$x}</wrapped>").unwrap();
    r.eval(
        p0,
        &Expr::Deploy {
            to: p1,
            query: LocatedQuery::new(wrap, p0),
            as_service: "wrapper".into(),
        },
    );
    r.eval(
        p0,
        &Expr::Sc {
            provider: PeerRef::At(p1),
            service: "wrapper".into(),
            params: vec![lit("<gift/>", p0)],
            forward: vec![],
        },
    );
    // Rules (14)–(16): delegation, reply-shaped and general, remote and local.
    let big = Query::parse(
        "big",
        r#"for $p in $0//pkg where $p/size/text() > 1000 return {$p/@name}"#,
    )
    .unwrap();
    let pushed = Expr::Send {
        dest: SendDest::Peer(p0),
        payload: Box::new(Expr::Apply {
            query: LocatedQuery::new(big, p0),
            args: vec![doc_at("catalog", p1)],
        }),
    };
    r.eval(
        p0,
        &Expr::EvalAt {
            peer: p1,
            expr: Box::new(pushed.clone()),
        },
    );
    r.eval(
        p0,
        &Expr::EvalAt {
            peer: p1,
            expr: Box::new(Expr::Send {
                dest: SendDest::Nodes(vec![vault]),
                payload: Box::new(doc_at("data", p1)),
            }),
        },
    );
    r.eval(
        p0,
        &Expr::EvalAt {
            peer: p0,
            expr: Box::new(pushed),
        },
    );
    // Rule (13): a sequence whose last step is the value.
    r.eval(
        p0,
        &Expr::Seq(vec![
            Expr::Send {
                dest: SendDest::Peer(p2),
                payload: Box::new(lit("<warm/>", p0)),
            },
            doc_at("data", p1),
        ]),
    );
    // Typed failures are part of the contract.
    r.eval(p0, &doc_at("missing", p1));
    r.eval(p0, &doc_at("catalog", PeerId(9)));
    for (at, name) in [(p2, "vault"), (p3, "log"), (p2, "fresh")] {
        r.doc(at, name);
    }
    r.digest()
}

/// A client plus three mirrors carrying a document class and a service
/// class, optionally under a fault plan with retry + failover on.
fn mirrors(seed: u64, faults: Option<fn(PeerId, [PeerId; 3]) -> FaultPlan>) -> Run {
    let mut b = AxmlSystem::builder().peer("client").seed(seed);
    for i in 0..3 {
        let name = format!("mirror-{i}");
        let cost = LinkCost {
            latency_ms: 1.0 + 10.0 * i as f64,
            bytes_per_ms: 10_000.0 / (1.0 + i as f64),
            per_msg_bytes: 64,
        };
        b = b
            .peer(name.clone())
            .link("client", name.as_str(), cost)
            .replica(name.as_str(), "catalog", format!("catalog-{i}"), CATALOG)
            .doc(name.as_str(), "data", "<data><n>5</n><n>9</n></data>")
            .service(
                name.as_str(),
                format!("over-{i}"),
                r#"for $n in doc("data")/n where $n/text() > $0/text() return {$n}"#,
            )
            .service_replica("over", name.as_str(), format!("over-{i}"));
    }
    let mut sys = b.build().unwrap();
    let client = sys.peer_id("client").unwrap();
    let ms = [0, 1, 2].map(|i| sys.peer_id(&format!("mirror-{i}")).unwrap());
    if let Some(plan) = faults {
        sys.set_retry_policy(RetryPolicy::standard());
        sys.set_failover(true);
        sys.net_mut().set_fault_plan(plan(client, ms));
    }
    Run::new(sys)
}

fn any_doc() -> Expr {
    Expr::Doc {
        name: "catalog".into(),
        at: PeerRef::Any,
    }
}

fn any_over(at: PeerId) -> Expr {
    Expr::Sc {
        provider: PeerRef::Any,
        service: "over".into(),
        params: vec![lit("<min>6</min>", at)],
        forward: vec![],
    }
}

/// Definition (9) under every pick policy, fault-free: remote picks, a
/// pick that resolves to the evaluating peer, and an empty class.
fn generic_picks() -> String {
    let mut r = mirrors(0x601D_0002, None);
    let client = r.sys.peer_id("client").unwrap();
    let m1 = r.sys.peer_id("mirror-1").unwrap();
    for policy in [
        PickPolicy::Closest,
        PickPolicy::First,
        PickPolicy::RoundRobin,
        PickPolicy::Random(7),
    ] {
        r.sys.set_pick_policy(policy);
        r.note(format_args!("policy {policy:?}"));
        for _ in 0..3 {
            r.eval(client, &any_doc());
            r.eval(client, &any_over(client));
        }
        // The evaluating peer is itself a member of both classes.
        r.eval(m1, &any_doc());
        r.eval(m1, &any_over(m1));
    }
    r.eval(
        client,
        &Expr::Doc {
            name: "nowhere".into(),
            at: PeerRef::Any,
        },
    );
    r.digest()
}

/// A 30 % drop plan with the standard retry budget on a single link:
/// drops are retried with jittered backoff; some evals still exhaust.
fn retried_drop() -> String {
    let mut sys = AxmlSystem::builder()
        .peers(["client", "server"])
        .link("client", "server", LinkCost::wan())
        .doc("server", "catalog", CATALOG)
        .service("server", "names", r#"doc("catalog")//pkg/@name"#)
        .seed(0x601D_0003)
        .retry(RetryPolicy::standard())
        .build()
        .unwrap();
    let client = sys.peer_id("client").unwrap();
    let server = sys.peer_id("server").unwrap();
    sys.net_mut()
        .set_fault_plan(FaultPlan::new(0xD209).drop_prob(0.30).jitter_ms(0.4));
    let mut r = Run::new(sys);
    for _ in 0..10 {
        r.eval(client, &doc_at("catalog", server));
        r.eval(
            client,
            &Expr::Sc {
                provider: PeerRef::At(server),
                service: "names".into(),
                params: vec![],
                forward: vec![],
            },
        );
    }
    assert!(r.sys.metrics().retries > 0, "the plan must force retries");
    r.digest()
}

/// `d@any` with the closest mirror's route down for windows the retry
/// budget cannot outlast: the pick fails over to a live replica.
fn doc_failover() -> String {
    let mut r = mirrors(
        0x601D_0004,
        Some(|client, ms| {
            let mut p = FaultPlan::new(0xFA11_0D0C).drop_prob(0.05).jitter_ms(0.4);
            for k in 0..12 {
                let start = 25.0 + 700.0 * k as f64;
                p = p.outage_directed(client, ms[0], start, start + 350.0);
            }
            p
        }),
    );
    let client = r.sys.peer_id("client").unwrap();
    for _ in 0..12 {
        r.eval(client, &any_doc());
    }
    assert!(
        r.sys.metrics().failovers > 0,
        "outages must force failovers"
    );
    r.digest()
}

/// `s@any` with the closest provider crashing periodically: parameters
/// are re-shipped to the next live member of the service class.
fn service_failover() -> String {
    let mut r = mirrors(
        0x601D_0005,
        Some(|_, ms| {
            FaultPlan::new(0xFA11_5E2F)
                .drop_prob(0.05)
                .jitter_ms(0.4)
                .crash(ms[0], 10.0, 400.0, 900.0)
                .crash(ms[1], 30.0, 200.0, 1300.0)
        }),
    );
    let client = r.sys.peer_id("client").unwrap();
    r.sys.set_pick_policy(PickPolicy::RoundRobin);
    for _ in 0..16 {
        r.eval(client, &any_over(client));
    }
    assert!(
        r.sys.metrics().failovers > 0,
        "crashes must force failovers"
    );
    r.digest()
}

/// Continuous services: activation (concrete, `any` and forwarded
/// sinks), an `@after` chain, feeds, lazy activation, replica
/// maintenance and unsubscription.
fn continuous() -> String {
    let item = r#"for $i in doc("news")/item where $i/@topic = "db" return {$i}"#;
    let mut sys = AxmlSystem::builder()
        .peers(["client", "server", "mirror", "archive"])
        .link("client", "server", LinkCost::wan())
        .link("client", "mirror", LinkCost::lan())
        .link("server", "mirror", LinkCost::wan())
        .link("server", "archive", LinkCost::lan())
        .link("mirror", "archive", LinkCost::wan())
        .replica(
            "server",
            "news-any",
            "news",
            r#"<news><item topic="db">v0</item></news>"#,
        )
        .replica(
            "mirror",
            "news-any",
            "news",
            r#"<news><item topic="db">v0</item></news>"#,
        )
        .doc("server", "stamps", "<stamps><mark>seen</mark></stamps>")
        .doc("archive", "log", "<log/>")
        .service("server", "db-news", item)
        .service("mirror", "db-news-m", item)
        .service("server", "stamp", r#"doc("stamps")/mark"#)
        .service_replica("db-news-any", "server", "db-news")
        .service_replica("db-news-any", "mirror", "db-news-m")
        .seed(0x601D_0006)
        .build()
        .unwrap();
    let [client, server, mirror, archive] =
        ["client", "server", "mirror", "archive"].map(|n| sys.peer_id(n).unwrap());
    let log = root_addr(&sys, archive, "log");
    sys.install_doc(
        client,
        "digest",
        tree(&format!(
            r#"<digest>
                 <sc id="first"><peer>p1</peer><service>db-news</service></sc>
                 <sc after="first"><peer>p1</peer><service>stamp</service></sc>
                 <sc><peer>any</peer><service>db-news-any</service></sc>
                 <sc><peer>p2</peer><service>db-news-m</service><forw>log#{}@p3</forw></sc>
                 <sc mode="lazy"><peer>p1</peer><service>stamp</service></sc>
               </digest>"#,
            log.node.index()
        )),
    )
    .unwrap();
    let mut r = Run::new(sys);
    let ids = r.sys.activate_document(client, &"digest".into());
    r.note(format_args!("activated {ids:?}"));
    let again = r.sys.activate_document(client, &"digest".into());
    r.note(format_args!("re-activated {again:?}"));
    for (i, topic) in ["db", "ai", "db"].into_iter().enumerate() {
        let t = tree(&format!(r#"<item topic="{topic}">v{}</item>"#, i + 1));
        let n = r.sys.feed(server, "news", t);
        r.note(format_args!("feed {n:?}"));
    }
    let n = r.sys.feed_replicas(
        mirror,
        &"news-any".into(),
        tree(r#"<item topic="db">r1</item>"#),
    );
    r.note(format_args!("feed_replicas {n:?}"));
    let marks = Query::parse("marks", "$0//mark").unwrap();
    let lazy = r.sys.query_document(client, &"digest".into(), &marks);
    match lazy {
        Ok((f, activated)) => {
            r.note(format_args!("lazy activated {activated}"));
            r.forest(Ok(f));
        }
        Err(e) => r.forest(Err(e)),
    }
    let first = r.sys.subscriptions().next().unwrap().id;
    let gone = r.sys.unsubscribe(first);
    r.note(format_args!("unsubscribed {gone}"));
    let n = r
        .sys
        .feed(server, "news", tree(r#"<item topic="db">v9</item>"#));
    r.note(format_args!("feed {n:?}"));
    for (at, name) in [(client, "digest"), (archive, "log"), (mirror, "news")] {
        r.doc(at, name);
    }
    r.digest()
}

#[test]
fn engine_behaviour_matches_the_pinned_digests() {
    let mut drifted = String::new();
    for (name, run, pinned) in GOLDEN {
        let actual = run();
        if actual != pinned {
            writeln!(drifted, "{name}/seq: {actual}").unwrap();
        }
    }
    assert!(
        drifted.is_empty(),
        "engine behaviour drifted from the pinned digests; actual rows:\n{drifted}"
    );
}
