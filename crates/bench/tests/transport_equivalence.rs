//! The differential transport oracle: the socket backend must be
//! *bit-for-bit* indistinguishable from the discrete-event reference —
//! identical result trees, identical final state Σ, identical
//! `NetStats` and `RunReport` (no wall-clock fields exist in either) —
//! over a matrix of topologies × seeds, plus a faulted row.
//!
//! Every socket row runs against **real endpoint OS processes**: a
//! [`ProcessCluster`] of `peerd`s on loopback TCP, one per peer. After
//! the run, each endpoint's own frame counters must reconcile with the
//! client-side wire ledger *and* with `NetStats` — proving that every
//! message the deterministic model charged really crossed a process
//! boundary bit-exactly (the per-send digest acks check the bytes).

use axml_bench::cluster::ProcessCluster;
use axml_bench::workload::{catalog, naive_apply, selective_query};
use axml_core::engine::Wire;
use axml_core::prelude::*;

fn topologies() -> Vec<(&'static str, Topology)> {
    vec![
        (
            "uniform-3",
            Topology::Uniform {
                n: 3,
                cost: LinkCost::wan(),
            },
        ),
        (
            "star-4",
            Topology::Star {
                n: 4,
                spoke: LinkCost::wan(),
            },
        ),
        (
            "clustered-2x2",
            Topology::Clustered {
                clusters: vec![2, 2],
                intra: LinkCost::lan(),
                inter: LinkCost::wan(),
            },
        ),
    ]
}

const SEEDS: &[u64] = &[0x7E57_0001, 0x7E57_0002];

/// A builder over the given wire, or over the simulator alone.
fn builder_over(wire: Option<Box<dyn Transport<Wire> + Send>>) -> SystemBuilder {
    match wire {
        Some(wire) => AxmlSystem::builder().transport(wire),
        None => AxmlSystem::builder(),
    }
}

/// Run the standard workload for one matrix row over the given wire
/// and return the full observable fingerprint.
fn run_row(
    topology: &Topology,
    seed: u64,
    faulted: bool,
    wire: Option<Box<dyn Transport<Wire> + Send>>,
) -> String {
    let n = topology.peer_count();
    let mut sys = builder_over(wire)
        .topology(topology)
        .seed(seed)
        .build()
        .unwrap();
    let client = PeerId(0);
    let host = PeerId(1);
    let mirror = PeerId((n - 1) as u32);
    let body = catalog(30, 0.2, seed ^ 0xCA7);
    sys.install_replica(host, "cat", "cat-host", body.clone())
        .unwrap();
    sys.install_replica(mirror, "cat", "cat-mirror", body)
        .unwrap();
    sys.register_declarative_service(
        host,
        "scan",
        r#"for $p in doc("cat-host")//pkg where $p/size/text() > 100000 return {$p/@name}"#,
    )
    .unwrap();
    if faulted {
        sys.set_retry_policy(RetryPolicy::standard());
        sys.net_mut()
            .set_fault_plan(FaultPlan::new(seed ^ 0xFA).drop_prob(0.10).jitter_ms(0.5));
    }

    let exprs = [
        naive_apply(selective_query(), client, host),
        Expr::Doc {
            name: "cat".into(),
            at: PeerRef::Any,
        },
        Expr::Sc {
            provider: PeerRef::At(host),
            service: "scan".into(),
            params: vec![],
            forward: vec![],
        },
    ];
    let mut out = String::new();
    for (i, e) in exprs.iter().enumerate() {
        match sys.eval(client, e) {
            Ok(f) => {
                out.push_str(&format!("[{i} ok "));
                for t in &f {
                    out.push_str(&t.serialize());
                }
                out.push(']');
            }
            Err(err) => out.push_str(&format!("[{i} err {err}]")),
        }
    }
    // The faulted row hammers the lossy link so retries and drops pile
    // up in both the stats and the retry counters.
    if faulted {
        let fetch = Expr::Doc {
            name: "cat".into(),
            at: PeerRef::At(host),
        };
        for i in 0..6 {
            match sys.eval(client, &fetch) {
                Ok(f) => out.push_str(&format!("[f{i} ok {} trees]", f.len())),
                Err(err) => out.push_str(&format!("[f{i} err {err}]")),
            }
        }
    }
    let messages = sys.stats().total_messages();
    let report = sys.run_report("transport-equivalence").to_json();
    format!(
        "out={out}\nsigma={:?}\nmessages={messages}\nreport={report}",
        sys.snapshot()
    )
}

/// Run one socket row against real `peerd` processes, then reconcile
/// the endpoints against the client ledger and `NetStats`.
fn run_socket_row(topology: &Topology, seed: u64, faulted: bool) -> String {
    let cluster = ProcessCluster::launch(topology.peer_count()).expect("launch peerd cluster");
    let transport = cluster.transport();
    let handle = transport.handle();
    let fingerprint = run_row(topology, seed, faulted, Some(Box::new(transport)));
    let reports = handle.reconcile().expect("endpoint counters reconcile");
    let shipped: u64 = reports.iter().map(|r| r.frames).sum();
    let messages: u64 = fingerprint
        .lines()
        .find_map(|l| l.strip_prefix("messages="))
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(
        shipped, messages,
        "every charged message crossed a process boundary exactly once"
    );
    handle.shutdown();
    cluster
        .join(std::time::Duration::from_secs(20))
        .expect("peerd processes exit after Bye");
    fingerprint
}

#[test]
fn socket_backend_matches_sim_over_the_matrix() {
    for (tname, t) in topologies() {
        for &seed in SEEDS {
            let sim = run_row(&t, seed, false, None);
            let socket = run_socket_row(&t, seed, false);
            assert_eq!(
                sim, socket,
                "row {tname} × {seed:#x} diverged between backends"
            );
        }
    }
}

#[test]
fn socket_backend_matches_sim_under_faults() {
    // Drops and retries must play out identically: rejected attempts
    // never touch the wire, so the seeded fault stream stays aligned.
    let (tname, t) = &topologies()[0];
    let sim = run_row(t, 0xFA_0157, true, None);
    let socket = run_socket_row(t, 0xFA_0157, true);
    assert_eq!(sim, socket, "faulted row {tname} diverged between backends");
}

#[test]
fn builder_rejects_transport_after_peers() {
    let cluster = ProcessCluster::launch(1).expect("launch peerd");
    let err = AxmlSystem::builder()
        .peer("early")
        .transport(Box::new(cluster.transport()))
        .build()
        .err()
        .expect("transport() after peer() must fail");
    assert!(err.to_string().contains("transport"), "{err}");
}

#[test]
fn cluster_demo_workload_traces_identically() {
    // The axml-cluster demo's trace tee must capture the same events on
    // both backends (spot check: event counts match).
    let t = Topology::Uniform {
        n: 3,
        cost: LinkCost::wan(),
    };
    let count_events = |wire: Option<Box<dyn Transport<Wire> + Send>>| {
        let sink = VecSink::new();
        let mut sys = builder_over(wire)
            .topology(&t)
            .seed(7)
            .trace(sink.clone())
            .build()
            .unwrap();
        let host = PeerId(1);
        sys.install_doc(host, "cat", catalog(10, 0.3, 0xBEEF))
            .unwrap();
        sys.eval(
            PeerId(0),
            &Expr::Doc {
                name: "cat".into(),
                at: PeerRef::At(host),
            },
        )
        .unwrap();
        sink.take().len()
    };
    let sim_events = count_events(None);
    let socket_events = count_events(Some(Box::new(SocketTransport::new())));
    assert_eq!(sim_events, socket_events, "identical trace streams");
    assert!(sim_events > 0);
}
