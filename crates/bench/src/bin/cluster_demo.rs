//! `axml-cluster` — a 3-peer loopback cluster demo.
//!
//! Launches three real `peerd` endpoint processes on loopback, builds
//! an [`AxmlSystem`] over a [`SocketTransport`] wire, evaluates a query
//! whose catalog lives across a WAN link, and then proves two things:
//!
//! 1. **Differential oracle** — the same workload on the discrete-event
//!    simulator produces bit-identical results and a reconciling
//!    `RunReport` (the wire has no say over time, faults or statistics);
//! 2. **Physical reconciliation** — every charged message really
//!    crossed a process boundary: each endpoint's own frame counters
//!    match the client-side wire ledger.
//!
//! Set `AXML_TRACE_OUT=cluster.trc` to tee the socket run's trace into
//! a binary file for replay with `axml-trace`. See `TRANSPORT.md` for
//! the guided version of this walkthrough.
//!
//! ```text
//! cargo run --release -p axml-bench --bin axml-cluster
//! ```

use axml_bench::cluster::ProcessCluster;
use axml_core::prelude::*;

const CATALOG: &str = r#"<catalog>
  <pkg name="vim"><size>40000</size></pkg>
  <pkg name="ed"><size>120</size></pkg>
  <pkg name="emacs"><size>90000</size></pkg>
</catalog>"#;

const QUERY: &str = r#"for $p in $0//pkg where $p/size/text() > 10000
       return <big name="{$p/@name}">{$p/size}</big>"#;

/// Build the demo system over the given wire (none: the simulator
/// alone), run the workload, and return (serialized results, run report).
fn run(
    wire: Option<Box<dyn Transport<axml_core::engine::Wire> + Send>>,
    trace: Option<Box<dyn TraceSink>>,
) -> (String, RunReport) {
    let mut builder = AxmlSystem::builder();
    if let Some(wire) = wire {
        builder = builder.transport(wire);
    }
    builder = builder
        .peers(["app", "store", "mirror"])
        .link("app", "store", LinkCost::wan())
        .link("app", "mirror", LinkCost::lan())
        .link("store", "mirror", LinkCost::wan())
        .replica("store", "catalog", "catalog-main", CATALOG)
        .replica("mirror", "catalog", "catalog-mirror", CATALOG)
        .seed(42);
    if let Some(sink) = trace {
        builder = builder.trace(sink);
    }
    let mut sys = builder.build().expect("valid demo system");
    let app = sys.peer_id("app").unwrap();
    let q = Query::parse("find-big", QUERY).unwrap();
    let expr = Expr::Apply {
        query: LocatedQuery::new(q, app),
        args: vec![Expr::Doc {
            name: "catalog".into(),
            at: PeerRef::Any,
        }],
    };
    let backend = sys.transport_backend();
    let forest = sys.eval(app, &expr).expect("query evaluates");
    let serialized: String = forest.iter().map(|t| t.serialize()).collect();
    println!(
        "[{backend}] results: {} trees, {} bytes shipped, makespan {:.2} ms",
        forest.len(),
        sys.stats().total_bytes(),
        sys.now_ms()
    );
    let report = sys.run_report(format!("cluster demo ({backend})"));
    (serialized, report)
}

fn main() {
    // ---- the real cluster: 3 endpoint OS processes on loopback -------
    let cluster = ProcessCluster::launch(3).expect("launch peerd processes");
    println!(
        "launched {} peerd endpoint processes: {:?}",
        cluster.len(),
        cluster.addrs()
    );
    let transport = cluster.transport();
    let handle = transport.handle();

    // Optional trace tee, same convention as examples/quickstart.rs.
    let trace_out = std::env::var("AXML_TRACE_OUT").ok();
    let sink: Option<Box<dyn TraceSink>> = trace_out.as_ref().map(|path| {
        Box::new(BinSink::create(path).expect("create trace file")) as Box<dyn TraceSink>
    });

    let (socket_results, socket_report) = run(Some(Box::new(transport)), sink);

    // Every endpoint process counted exactly the frames we shipped.
    let reports = handle.reconcile().expect("endpoint counters reconcile");
    for r in &reports {
        println!(
            "endpoint {} ({}): {} frames, {} payload bytes — reconciled",
            r.peer, r.name, r.frames, r.payload_bytes
        );
    }
    handle.shutdown();
    cluster
        .join(std::time::Duration::from_secs(10))
        .expect("endpoint processes exit after Bye");

    // ---- the differential oracle: same workload on the simulator -----
    let (sim_results, sim_report) = run(None, None);
    assert_eq!(socket_results, sim_results, "bit-identical query results");
    assert_eq!(
        socket_report.to_json(),
        sim_report
            .to_json()
            .replace("cluster demo (sim)", "cluster demo (socket)"),
        "reconciling RunReports"
    );
    println!("\nsim and socket backends agree: results and reports are identical");
    println!("\n{socket_report}");

    if let Some(path) = trace_out {
        println!(
            "\ntrace file {path}: replay with `cargo run -p axml-bench --bin axml-trace -- {path}`"
        );
    }
}
