//! The seeded chaos matrix: drop rates × outage schedules × topologies,
//! each run with retry + failover enabled.
//!
//! Invariants checked for every cell:
//!
//! 1. **Seed determinism under faults** — re-running a cell on a fresh
//!    system with the same seed produces the same per-eval outcomes
//!    (success *and* failure), the same retry/failover/drop counters,
//!    the same `NetStats`, and the same `RunReport` JSON, byte for byte.
//! 2. **Fault transparency** — every eval that *succeeds* under faults
//!    returns a forest bit-identical to the fault-free reference run.
//! 3. **Reconciliation** — every `RunReport` reconciles the engine's
//!    metrics against the network's statistics, drop-for-drop.
//!
//! The matrix runs under three built-in seeds; the `AXML_CHAOS_SEED`
//! environment variable (decimal or `0x`-hex) appends a fourth —
//! `scripts/tier1.sh` uses it to pin two extra fixed seeds.

use axml::prelude::*;

/// Built-in fault seeds every run of the suite covers.
const BUILTIN_SEEDS: [u64; 3] = [0xC0FF_EE01, 0xDEAD_BEEF, 0x5EED_0003];

/// Swept per-link drop probabilities.
const DROP_RATES: [f64; 3] = [0.0, 0.05, 0.10];

fn seeds() -> Vec<u64> {
    let mut s = BUILTIN_SEEDS.to_vec();
    if let Ok(v) = std::env::var("AXML_CHAOS_SEED") {
        let v = v.trim();
        let parsed = match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => v.parse().ok(),
        };
        match parsed {
            Some(x) if !s.contains(&x) => s.push(x),
            Some(_) => {}
            None => panic!("AXML_CHAOS_SEED must be a decimal or 0x-hex u64, got `{v}`"),
        }
    }
    s
}

/// The two topologies of the matrix.
#[derive(Clone, Copy, PartialEq)]
enum Topo {
    /// One client, one server, one WAN link — no replicas, so failover
    /// has nothing to re-pick: exercises retry exhaustion.
    Pair,
    /// One client, three catalog mirrors (docs + a service class) —
    /// exercises `pickDoc`/`pickService` failover.
    Mirrors,
}

/// The outage schedules of the matrix.
#[derive(Clone, Copy, PartialEq)]
enum Sched {
    /// Faults are only drops (if any).
    Calm,
    /// The busiest route is down for windows the retry budget cannot
    /// outlast.
    Outages,
    /// The primary provider periodically crashes outright.
    Crashes,
}

const CATALOG: &str = concat!(
    r#"<catalog><pkg name="vim"><size>4000</size></pkg>"#,
    r#"<pkg name="emacs"><size>90000</size></pkg>"#,
    r#"<pkg name="ed"><size>120</size></pkg></catalog>"#
);

/// Build a system for `topo` and return it with the client id, the
/// primary provider id, and the eval workload.
fn build(topo: Topo) -> (AxmlSystem, PeerId, PeerId, Vec<Expr>) {
    match topo {
        Topo::Pair => {
            let sys = AxmlSystem::builder()
                .peers(["client", "server"])
                .link("client", "server", LinkCost::wan())
                .doc("server", "catalog", CATALOG)
                .service("server", "names", r#"doc("catalog")//pkg/@name"#)
                .build()
                .unwrap();
            let client = sys.peer_id("client").unwrap();
            let server = sys.peer_id("server").unwrap();
            let mut exprs = Vec::new();
            for _ in 0..8 {
                exprs.push(Expr::Doc {
                    name: "catalog".into(),
                    at: PeerRef::At(server),
                });
                exprs.push(Expr::Sc {
                    provider: PeerRef::At(server),
                    service: "names".into(),
                    params: vec![],
                    forward: vec![],
                });
            }
            (sys, client, server, exprs)
        }
        Topo::Mirrors => {
            let mut b = AxmlSystem::builder().peer("client");
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
                    .doc(name.as_str(), "catalog", CATALOG)
                    .service(name.as_str(), "names", r#"doc("catalog")//pkg/@name"#)
                    .service_replica("names", name.as_str(), "names");
            }
            let mut sys = b.build().unwrap();
            let client = sys.peer_id("client").unwrap();
            let ms: Vec<PeerId> = (0..3)
                .map(|i| sys.peer_id(&format!("mirror-{i}")).unwrap())
                .collect();
            for &m in &ms {
                sys.catalog_mut().add_doc_replica("catalog", m, "catalog");
            }
            let mut exprs = Vec::new();
            for _ in 0..8 {
                exprs.push(Expr::Doc {
                    name: "catalog".into(),
                    at: PeerRef::Any,
                });
                exprs.push(Expr::Sc {
                    provider: PeerRef::Any,
                    service: "names".into(),
                    params: vec![],
                    forward: vec![],
                });
            }
            (sys, client, ms[0], exprs)
        }
    }
}

/// The fault plan for one matrix cell.
fn plan(seed: u64, drop: f64, sched: Sched, client: PeerId, primary: PeerId) -> FaultPlan {
    let mut p = FaultPlan::new(seed).drop_prob(drop).jitter_ms(0.4);
    match sched {
        Sched::Calm => {}
        Sched::Outages => {
            for k in 0..12 {
                let start = 25.0 + 700.0 * k as f64;
                p = p.outage_directed(client, primary, start, start + 350.0);
            }
        }
        Sched::Crashes => {
            p = p.crash(primary, 60.0, 300.0, 900.0);
        }
    }
    p
}

/// Everything observable about one run, for bit-exact comparison.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    /// Per-eval: serialized forest on success, `Display` of the error
    /// otherwise.
    evals: Vec<Result<String, String>>,
    report_json: String,
    reconciled: bool,
    retries: u64,
    failovers: u64,
    dropped: u64,
    messages: u64,
    bytes: u64,
}

/// Run the workload for one cell.
fn run_cell(topo: Topo, seed: u64, drop: f64, sched: Sched) -> Outcome {
    let (mut sys, client, primary, exprs) = build(topo);
    sys.set_engine_seed(seed ^ 0x0B5E_55ED);
    sys.set_retry_policy(RetryPolicy::standard());
    sys.set_failover(true);
    sys.net_mut()
        .set_fault_plan(plan(seed, drop, sched, client, primary));
    let evals = exprs
        .iter()
        .map(|e| {
            sys.eval(client, e)
                .map(|f| f.iter().map(|t| t.serialize()).collect::<Vec<_>>().join(""))
                .map_err(|err| err.to_string())
        })
        .collect();
    let report = sys.run_report("chaos cell");
    Outcome {
        evals,
        report_json: report.to_json(),
        reconciled: report.reconciled,
        retries: sys.metrics().retries,
        failovers: sys.metrics().failovers,
        dropped: sys.metrics().total_dropped(),
        messages: sys.stats().total_messages(),
        bytes: sys.stats().total_bytes(),
    }
}

/// The fault-free reference for a topology (faults off, same workload).
fn reference(topo: Topo) -> Vec<String> {
    let (mut sys, client, _primary, exprs) = build(topo);
    exprs
        .iter()
        .map(|e| {
            sys.eval(client, e)
                .expect("fault-free reference must succeed")
                .iter()
                .map(|t| t.serialize())
                .collect::<Vec<_>>()
                .join("")
        })
        .collect()
}

#[test]
fn chaos_matrix_is_deterministic_and_reconciles() {
    for topo in [Topo::Pair, Topo::Mirrors] {
        let fault_free = reference(topo);
        for seed in seeds() {
            for drop in DROP_RATES {
                for sched in [Sched::Calm, Sched::Outages, Sched::Crashes] {
                    let seq = run_cell(topo, seed, drop, sched);
                    let cell = format!(
                        "topo={} seed={seed:#x} drop={drop} sched={}",
                        if topo == Topo::Pair {
                            "pair"
                        } else {
                            "mirrors"
                        },
                        match sched {
                            Sched::Calm => "calm",
                            Sched::Outages => "outages",
                            Sched::Crashes => "crashes",
                        }
                    );
                    // (3) every report reconciles.
                    assert!(seq.reconciled, "non-reconciling report at {cell}");
                    // (2) successful evals are bit-identical to the
                    // fault-free reference.
                    for (i, r) in seq.evals.iter().enumerate() {
                        if let Ok(forest) = r {
                            assert_eq!(
                                forest, &fault_free[i],
                                "fault-transparency violation at {cell} eval {i}"
                            );
                        }
                    }
                    // (1) same seed ⇒ same outcomes, counters, stats,
                    // reports — byte for byte.
                    let again = run_cell(topo, seed, drop, sched);
                    assert_eq!(seq, again, "seed replay diverged at {cell}");
                }
            }
        }
    }
}

#[test]
fn chaos_runs_actually_fault_and_recover() {
    // Sanity that the matrix is not vacuous: at 10% drop the mirrors
    // topology drops messages, retries them, and fails over during
    // outages — and still completes every eval.
    let o = run_cell(Topo::Mirrors, BUILTIN_SEEDS[0], 0.10, Sched::Outages);
    assert!(o.dropped > 0, "expected injected drops, got none");
    assert!(o.retries > 0, "drops and outages must schedule retries");
    assert!(o.failovers > 0, "outages must force failovers");
    assert!(
        o.evals.iter().all(|r| r.is_ok()),
        "retry + failover should complete every eval: {:?}",
        o.evals.iter().filter(|r| r.is_err()).collect::<Vec<_>>()
    );
    // The pair topology has nowhere to fail over: outages there must
    // surface as typed exhaustion, not hangs or silent corruption.
    let p = run_cell(Topo::Pair, BUILTIN_SEEDS[0], 0.0, Sched::Outages);
    assert!(
        p.evals.iter().any(|r| r.is_err()),
        "pair outages must fail some evals"
    );
    assert!(
        p.evals
            .iter()
            .filter_map(|r| r.as_ref().err())
            .all(|e| e.contains("retry budget exhausted")),
        "failures must be typed exhaustion: {:?}",
        p.evals
    );
    assert!(p.reconciled, "failed evals must still reconcile");
}
