//! Scale and determinism stress tests, in two tiers:
//!
//! * the original 24-peer tier — replicated classes under
//!   concurrent-looking update sequences and bit-for-bit reproducibility
//!   of whole runs;
//! * the **EDOS tier** — a 10⁴-peer replica network (mirroring the E14
//!   experiment's structure) asserting that two fresh runs from one seed
//!   give one fingerprint, plus exact `RunReport` ↔ `NetStats` ↔
//!   `LiveStats` reconciliation under a nonzero drop rate, and O(n)
//!   construction at 10⁵ peers.

use axml::core::cost::CostModel;
use axml::net::frame::fnv1a64;
use axml::prelude::*;
use axml::xml::tree::Tree;

fn catalog(n: usize, seed: usize) -> Tree {
    let mut xml = String::from("<catalog>");
    for i in 0..n {
        xml.push_str(&format!(
            r#"<pkg name="pkg-{seed}-{i}"><size>{}</size></pkg>"#,
            (i * 7919 + seed * 31) % 100_000
        ));
    }
    xml.push_str("</catalog>");
    Tree::parse(&xml).unwrap()
}

/// A 24-peer clustered system: 3 sites of 8; data on one peer per site.
fn big_system() -> AxmlSystem {
    let mut b = AxmlSystem::builder().topology(&Topology::Clustered {
        clusters: vec![8, 8, 8],
        intra: LinkCost::lan(),
        inter: LinkCost::wan(),
    });
    for (site, data_peer) in [(0u32, 0u32), (1, 8), (2, 16)] {
        // Replicas are equivalent (same content) — the §2.3 premise.
        b = b.replica(
            PeerId(data_peer),
            "cat",
            format!("cat-{site}"),
            catalog(120, 0),
        );
    }
    b.build().unwrap()
}

#[test]
fn many_clients_query_generic_catalog() {
    let mut sys = big_system();
    sys.set_pick_policy(PickPolicy::Closest);
    let q = Query::parse(
        "sel",
        r#"for $p in $0//pkg where $p/size/text() > 90000 return {$p/@name}"#,
    )
    .unwrap();
    // Every non-data peer runs the same query against cat@any.
    let mut sizes = Vec::new();
    for p in 0..24u32 {
        if [0, 8, 16].contains(&p) {
            continue;
        }
        let e = Expr::Apply {
            query: LocatedQuery::new(q.clone(), PeerId(p)),
            args: vec![Expr::Doc {
                name: "cat".into(),
                at: PeerRef::Any,
            }],
        };
        let out = sys.eval(PeerId(p), &e).unwrap();
        sizes.push(out.len());
    }
    // All replicas are equivalent, so every client gets the same answer.
    assert_eq!(sizes.len(), 21);
    assert!(sizes.iter().all(|&s| s == sizes[0]), "{sizes:?}");
    assert!(sizes[0] > 0);
    // Closest keeps all fetches intra-site: no inter-cluster data at all.
    for a in 0..8u32 {
        for b in 8..24u32 {
            assert_eq!(
                sys.stats().link(PeerId(b), PeerId(a)).messages,
                0,
                "inter-cluster transfer {b}→{a}"
            );
        }
    }
}

#[test]
fn optimizer_handles_two_dozen_peers() {
    let sys = big_system();
    let model = CostModel::from_system(&sys);
    let q = Query::parse(
        "sel",
        r#"for $p in $0//pkg where $p/size/text() > 90000 return {$p/@name}"#,
    )
    .unwrap();
    let naive = Expr::Apply {
        query: LocatedQuery::new(q, PeerId(1)),
        args: vec![Expr::Doc {
            name: "cat-1".into(),
            at: PeerRef::At(PeerId(8)),
        }],
    };
    let t0 = std::time::Instant::now();
    let plan = Optimizer::standard().optimize(&model, PeerId(1), &naive);
    assert!(
        t0.elapsed().as_millis() < 5_000,
        "search must stay interactive at 24 peers"
    );
    assert!(plan.cost.scalar() < model.scalar_cost(PeerId(1), &naive));
}

#[test]
fn long_update_sequences_keep_replicas_consistent() {
    let mut sys = big_system();
    // interleave updates originating from each site
    for i in 0..30 {
        let origin = PeerId([0u32, 8, 16][i % 3]);
        sys.feed_replicas(
            origin,
            &"cat".into(),
            Tree::parse(&format!(
                r#"<pkg name="upd-{i}"><size>{}</size></pkg>"#,
                i * 1000
            ))
            .unwrap(),
        )
        .unwrap();
        assert!(
            sys.replicas_consistent(&"cat".into()).unwrap(),
            "after update {i}"
        );
    }
    // 30 updates × 2 sibling transfers each
    assert_eq!(sys.stats().total_messages(), 60);
}

#[test]
fn whole_runs_are_deterministic() {
    let run = || -> (String, u64, String) {
        let mut sys = big_system();
        sys.set_pick_policy(PickPolicy::Random(1234));
        let q = Query::parse(
            "sel",
            r#"for $p in $0//pkg where $p/size/text() > 50000 return <r>{$p/@name}</r>"#,
        )
        .unwrap();
        let mut transcript = String::new();
        for p in [1u32, 9, 17, 2, 10] {
            let e = Expr::Apply {
                query: LocatedQuery::new(q.clone(), PeerId(p)),
                args: vec![Expr::Doc {
                    name: "cat".into(),
                    at: PeerRef::Any,
                }],
            };
            let out = sys.eval(PeerId(p), &e).unwrap();
            transcript.push_str(&format!("{p}:{};", out.len()));
        }
        sys.feed_replicas(
            PeerId(0),
            &"cat".into(),
            Tree::parse("<pkg name=\"x\"/>").unwrap(),
        )
        .unwrap();
        (
            transcript,
            sys.stats().total_bytes(),
            format!("{:.6}", sys.stats().makespan_ms()),
        )
    };
    assert_eq!(run(), run(), "simulation must be bit-for-bit reproducible");
}

// ---------------------------------------------------------------------
// EDOS tier: 10⁴–10⁵ peers, sparse structures, seed determinism.
// ---------------------------------------------------------------------

/// Peers in the EDOS smoke network.
const EDOS_PEERS: usize = 10_000;
/// Mirrors hosting the replicated catalog + service.
const EDOS_MIRRORS: usize = 8;
/// Clients issuing polls.
const EDOS_CLIENTS: usize = 64;
/// Polls per run.
const EDOS_POLLS: usize = 200;
/// Background drop probability (drop-only faults: every poll still
/// succeeds through retry + failover, so the trace stream stays
/// complete and `LiveStats` reconciliation is *exact*).
const EDOS_DROP: f64 = 0.03;

/// Build the E14-shaped network: uniform WAN, mirrored catalog +
/// declarative service, clients with LAN home routes, seeded drop-only
/// faults. Construction is O(peers + mirrors + clients).
fn edos_system() -> (AxmlSystem, Vec<PeerId>) {
    let mut sys = AxmlSystem::with_topology(&Topology::Uniform {
        n: EDOS_PEERS,
        cost: LinkCost::wan(),
    });
    sys.set_pick_policy(PickPolicy::Closest);
    sys.set_retry_policy(RetryPolicy::standard());
    sys.set_failover(true);
    let tree = catalog(40, 14);
    let mirrors: Vec<PeerId> = (0..EDOS_MIRRORS)
        .map(|j| PeerId((j * EDOS_PEERS / EDOS_MIRRORS) as u32))
        .collect();
    for &m in &mirrors {
        sys.install_replica(m, "cat", "cat", tree.clone()).unwrap();
        sys.register_declarative_service(m, "names", r#"doc("cat")//pkg/@name"#)
            .unwrap();
        sys.catalog_mut().add_service_replica("names", m, "names");
    }
    let clients: Vec<PeerId> = (0..EDOS_CLIENTS)
        .map(|i| PeerId((1 + (i + 1) * EDOS_PEERS / (EDOS_CLIENTS + 1)) as u32))
        .collect();
    for (r, &cl) in clients.iter().enumerate() {
        sys.net_mut()
            .set_link(cl, mirrors[r % EDOS_MIRRORS], LinkCost::lan());
    }
    sys.net_mut()
        .set_fault_plan(FaultPlan::new(0xED05).drop_prob(EDOS_DROP));
    (sys, clients)
}

/// Run the deterministic poll schedule; return the transcript
/// fingerprint plus everything needed for reconciliation checks.
fn edos_run() -> (u64, usize, AxmlSystem, LiveStats) {
    let (mut sys, clients) = edos_system();
    let sink = LiveSink::new();
    sys.set_trace_sink(Box::new(sink.clone()));
    let mut transcript = String::new();
    let mut ok = 0usize;
    for i in 0..EDOS_POLLS {
        let client = clients[(7 * i) % clients.len()];
        let expr = if i % 5 < 4 {
            Expr::Doc {
                name: "cat".into(),
                at: PeerRef::Any,
            }
        } else {
            Expr::Sc {
                provider: PeerRef::Any,
                service: "names".into(),
                params: vec![],
                forward: vec![],
            }
        };
        let outcome = match sys.eval(client, &expr) {
            Ok(f) => {
                ok += 1;
                f.iter().map(|t| t.serialize()).collect::<Vec<_>>().join("")
            }
            Err(e) => format!("err:{e}"),
        };
        transcript.push_str(&format!("{}:{outcome};", client.0));
    }
    transcript.push_str(&format!(
        "msgs={} bytes={} dropped={} makespan={:016x}",
        sys.stats().total_messages(),
        sys.stats().total_bytes(),
        sys.stats().total_dropped(),
        sys.stats().makespan_ms().to_bits()
    ));
    sys.flush_trace().unwrap();
    (fnv1a64(transcript.as_bytes()), ok, sys, sink.stats())
}

#[test]
fn edos_fingerprint_is_reproducible_from_its_seed() {
    let mut reference = None;
    for run in 0..2 {
        let (fp, ok, ..) = edos_run();
        assert_eq!(
            ok, EDOS_POLLS,
            "run {run}: drop-only faults with retry + failover lose nothing"
        );
        match reference {
            None => reference = Some(fp),
            Some(r) => assert_eq!(fp, r, "run {run}: fingerprint diverged from the first run"),
        }
    }
}

#[test]
fn edos_reports_reconcile_exactly_under_drops() {
    let (_, ok, sys, live) = edos_run();
    assert_eq!(ok, EDOS_POLLS);
    // The drop rate actually bit — this is reconciliation *under
    // faults*, not a calm-network tautology.
    assert!(sys.stats().total_dropped() > 0, "drop rate must bite");

    // RunReport ↔ NetStats ↔ EvalMetrics, plus the scheduler ledger.
    let report = sys.run_report("edos reconcile");
    assert!(report.reconciled, "metrics, net stats and ledger agree");
    let sched = report.sched.expect("run_report attaches the ledger");
    assert!(
        sched.consistent(),
        "scheduled == delivered + cleared + pending"
    );
    assert_eq!(sched.pending, 0, "quiescent network holds no events");
    assert!(sched.scheduled >= sys.stats().total_messages());

    // LiveStats (folded from the trace stream) ↔ both batch layers,
    // counter-for-counter.
    live.reconcile(sys.metrics(), sys.stats())
        .expect("live fold must land on the batch counters exactly");
    assert_eq!(
        live.metrics().total_messages(),
        sys.stats().total_messages()
    );
    assert_eq!(live.metrics().total_bytes(), sys.stats().total_bytes());
    assert_eq!(live.metrics().total_dropped(), sys.stats().total_dropped());
    assert_eq!(live.inflight(), 0, "every sent message was delivered");
    assert!(live.metrics().retries > 0, "drops forced retries");
}

#[test]
fn edos_scale_construction_is_sparse_at_1e5() {
    // 10⁵ peers: O(n) construction (a rule-based topology, not a dense
    // matrix) and u64 counters throughout. A regression to dense
    // per-peer structures turns this from milliseconds into minutes of
    // allocation — the timeout is generous but finite.
    let t0 = std::time::Instant::now();
    let mut sys = AxmlSystem::with_topology(&Topology::Uniform {
        n: 100_000,
        cost: LinkCost::wan(),
    });
    assert_eq!(sys.peer_count(), 100_000);
    let hi = PeerId(99_999);
    sys.install_replica(hi, "cat", "cat", catalog(5, 1))
        .unwrap();
    let out = sys
        .eval(
            PeerId(3),
            &Expr::Doc {
                name: "cat".into(),
                at: PeerRef::Any,
            },
        )
        .unwrap();
    assert_eq!(out.len(), 1);
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(30),
        "1e5-peer construction + one eval took {:?}",
        t0.elapsed()
    );
    let mem = MemStats::snapshot();
    assert!(
        mem.peak_rss_bytes == 0 || mem.peak_rss_bytes < 4 << 30,
        "1e5 peers must not cost gigabytes: {} B",
        mem.peak_rss_bytes
    );
}
