//! Property: for a fixed (fault seed, engine seed) pair, the trace
//! *byte stream* produced by [`BinSink`] is
//! identical across runs — under active fault injection, including
//! dropped-message, retry, and failover events. A different fault seed
//! must produce a different stream (the property is not vacuous).

use axml::obs::{TraceEvent, TraceReader};
use axml::prelude::*;

const FAULT_SEED: u64 = 0x7AC3_D00D;

fn catalog_xml() -> String {
    let mut xml = String::from("<catalog>");
    for i in 0..40 {
        xml.push_str(&format!(
            r#"<pkg name="pkg-{i}"><size>{}</size></pkg>"#,
            (i * 53) % 10_000
        ));
    }
    xml.push_str("</catalog>");
    xml
}

/// Client + two mirrors under a drop-heavy plan, with retry + failover
/// on so the workload both faults and completes.
fn faulted_system(fault_seed: u64) -> (AxmlSystem, PeerId) {
    let xml = catalog_xml();
    let mut sys = AxmlSystem::builder()
        .peers(["client", "m0", "m1"])
        .link("client", "m0", LinkCost::wan())
        .link("client", "m1", LinkCost::wan())
        .doc("m0", "catalog", xml.as_str())
        .doc("m1", "catalog", xml.as_str())
        .build()
        .unwrap();
    let client = sys.peer_id("client").unwrap();
    let m0 = sys.peer_id("m0").unwrap();
    let m1 = sys.peer_id("m1").unwrap();
    sys.catalog_mut().add_doc_replica("catalog", m0, "catalog");
    sys.catalog_mut().add_doc_replica("catalog", m1, "catalog");
    sys.set_retry_policy(RetryPolicy::standard());
    sys.set_failover(true);
    sys.set_engine_seed(fault_seed ^ 0x0B5E_55ED);
    let mut plan = FaultPlan::new(fault_seed).drop_prob(0.20).jitter_ms(0.5);
    for k in 0..6 {
        let start = 15.0 + 500.0 * k as f64;
        plan = plan.outage_directed(client, m0, start, start + 250.0);
    }
    sys.net_mut().set_fault_plan(plan);
    (sys, client)
}

/// Run the faulted workload with `sink` installed; every eval must
/// complete (failover has a live mirror to re-pick).
fn run_traced(fault_seed: u64, sink: Box<dyn TraceSink>) {
    let (mut sys, client) = faulted_system(fault_seed);
    sys.set_trace_sink(sink);
    for _ in 0..10 {
        sys.eval(
            client,
            &Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::Any,
            },
        )
        .expect("retry + failover complete every eval");
    }
    sys.clear_trace_sink().unwrap();
}

fn bin_bytes(fault_seed: u64) -> Vec<u8> {
    let buf = SharedBuf::new();
    run_traced(fault_seed, Box::new(BinSink::new(buf.clone())));
    buf.bytes()
}

#[test]
fn same_seed_same_trace_bytes_under_faults() {
    let bin = bin_bytes(FAULT_SEED);

    // The streams actually witness faults: drops, retries, failovers.
    let events: Vec<TraceEvent> = TraceReader::new(&bin[..])
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    let count = |k: &str| events.iter().filter(|e| e.kind() == k).count();
    assert!(count("dropped") > 0, "plan must drop messages");
    assert!(count("retry") > 0, "drops must schedule retries");
    assert!(count("failover") > 0, "outages must force failovers");

    // Same seed ⇒ byte-identical stream.
    assert_eq!(bin, bin_bytes(FAULT_SEED), "binary stream must replay");
}

#[test]
fn different_seed_different_trace_bytes() {
    // Not vacuous: changing the fault seed reshuffles drops and jitter,
    // which must show up in the stream.
    assert_ne!(bin_bytes(FAULT_SEED), bin_bytes(FAULT_SEED ^ 1));
}
