//! Seed handling: the seed is the only source of inputs, so two runs at
//! one seed agree on every count the system's public ledgers expose,
//! and a second seed gives another stream that is just as correct.
//!
//! Runs at `--smoke` size, in process. The `socket_ship` case launches
//! real `peerd` processes: `ci.sh` builds the binary first and points
//! `AXML_PEERD` at it; without one the case reports itself skipped.

use axml_perf::harness::{run_end_to_end, run_epoch, Ledger, Size, Variant, Workload};
use axml_perf::workloads::edos_poll::EdosPoll;
use axml_perf::workloads::query_ship::QueryShip;
use axml_perf::workloads::socket_ship::{peerd_binary, SocketShip};
use axml_perf::workloads::sub_churn::SubChurn;

fn one_epoch<W: Workload>(seed: u64) -> Ledger {
    let plan = W::plan(seed, Size::SMOKE).expect("plan");
    run_epoch::<W>(&plan, Variant::default(), W::epoch_len(&plan), false, None)
        .expect("epoch")
        .ledger
}

fn same_seed_same_ledger_other_seed_other_stream<W: Workload>() {
    let (a, b) = (one_epoch::<W>(7), one_epoch::<W>(7));
    // `Ledger` holds wire bytes, virtual time, the failed-op count and
    // the message / drop / retry / failover / matcher counts.
    assert_eq!(a, b, "{}: two runs at one seed must agree exactly", W::NAME);
    assert!(
        a.ops > 0 && a.failed == 0 && a.reconciled,
        "{}: {a:?}",
        W::NAME
    );
    let c = one_epoch::<W>(8);
    assert!(c.failed == 0 && c.reconciled, "{}: {c:?}", W::NAME);
    assert_ne!(a, c, "{}: another seed must give another stream", W::NAME);
}

#[test]
fn query_ship_is_seeded() {
    same_seed_same_ledger_other_seed_other_stream::<QueryShip>();
}

#[test]
fn edos_poll_is_seeded() {
    same_seed_same_ledger_other_seed_other_stream::<EdosPoll>();
}

#[test]
fn sub_churn_is_seeded() {
    same_seed_same_ledger_other_seed_other_stream::<SubChurn>();
}

#[test]
fn socket_ship_is_seeded() {
    if !peerd_binary().is_ok_and(|p| p.is_file()) {
        eprintln!("socket_ship_is_seeded: skipped, no peerd binary (set AXML_PEERD)");
        return;
    }
    same_seed_same_ledger_other_seed_other_stream::<SocketShip>();
}

#[test]
fn a_run_repeats_its_epoch_exactly_and_reports_every_metric() {
    let plan = EdosPoll::plan(3, Size::SMOKE).expect("plan");
    // Long enough for several smoke epochs.
    let e = run_end_to_end::<EdosPoll>(&plan, 0.2).expect("run");
    assert!(e.epochs >= 2, "{} epochs", e.epochs);
    assert!(e.correct, "every epoch's ledger must equal the first's");
    assert_eq!(e.attempted, e.epochs as u64 * e.ledger.ops);
    assert_eq!(e.setup_s.n, e.epochs);
    assert_eq!(e.latency_us.n as u64, e.ledger.ops);
    for v in [
        e.setup_s.median,
        e.ops_per_s,
        e.latency_us.median,
        e.latency_p95_us,
        e.wire_bytes_per_op,
        e.virtual_ms_per_op,
        e.peak_rss_mb,
    ] {
        assert!(
            v.is_finite() && v > 0.0,
            "an end-to-end metric is never 0: {e:?}"
        );
    }
    assert!(e.latency_p95_us >= e.latency_us.median);
}
