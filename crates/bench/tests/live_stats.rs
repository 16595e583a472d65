//! The live-observability invariant: folding the trace stream
//! event-by-event through [`LiveStats`] must land on *exactly* the
//! numbers the batch books ([`EvalMetrics`] / `NetStats`) report at the
//! end of the run — for clean runs, optimizer runs, and seeded chaos
//! runs alike. The stream is not a lossy approximation of the metrics;
//! it is a second derivation of them.

use axml_bench::workload::{catalog, mirrors, naive_apply, selective_query, two_peer};
use axml_core::prelude::*;

/// Attach a VecSink, run `drive`, detach, and check that the folded
/// stream reconciles with the system's own books.
fn assert_stream_reconciles(mut sys: AxmlSystem, label: &str, drive: impl FnOnce(&mut AxmlSystem)) {
    let sink = VecSink::new();
    sys.set_trace_sink(Box::new(sink.clone()));
    drive(&mut sys);
    sys.flush_trace().unwrap();
    let events = sink.events();
    assert!(!events.is_empty(), "{label}: the run must emit events");
    let mut live = LiveStats::new();
    for e in &events {
        live.fold(e);
    }
    assert_eq!(live.events(), events.len() as u64, "{label}");
    if let Err(why) = live.reconcile(sys.metrics(), sys.stats()) {
        panic!("{label}: stream diverged from batch books: {why}");
    }
}

#[test]
fn prop_clean_runs_reconcile_across_seeds() {
    for seed in [1u64, 7, 42, 0xA11CE] {
        let (sys, client, server) = two_peer(catalog(30 + (seed % 50) as usize, 0.1, seed));
        let q = selective_query();
        assert_stream_reconciles(sys, &format!("two_peer seed {seed}"), move |sys| {
            let e = naive_apply(q, client, server);
            sys.eval(client, &e).unwrap();
        });
    }
}

#[test]
fn optimizer_runs_reconcile_rule_for_rule() {
    // The optimizer emits RuleAttempted events and bumps the same
    // counters; the stream must agree per rule name, not just in total.
    let (sys, client, server) = two_peer(catalog(80, 0.05, 3));
    assert_stream_reconciles(sys, "optimizer + optimized eval", move |sys| {
        let naive = naive_apply(selective_query(), client, server);
        let model = CostModel::from_system(sys);
        let plan = Optimizer::standard().optimize_with(&model, client, &naive, sys.obs_mut());
        sys.eval(client, &plan.expr).unwrap();
    });
}

#[test]
fn prop_chaos_runs_reconcile_drops_retries_and_failovers() {
    for (seed, drop) in [(0xC4A01u64, 0.05), (0xC4A02, 0.10), (0xC4A03, 0.20)] {
        let (mut sys, client, ms) = mirrors(3, catalog(40, 0.1, seed));
        sys.set_pick_policy(PickPolicy::Closest);
        sys.set_retry_policy(RetryPolicy::standard());
        sys.set_failover(true);
        let mut plan = FaultPlan::new(seed).drop_prob(drop);
        for k in 0..4 {
            let start = 40.0 + 600.0 * k as f64;
            plan = plan.outage_directed(client, ms[0], start, start + 300.0);
        }
        sys.net_mut().set_fault_plan(plan);
        assert_stream_reconciles(sys, &format!("chaos seed {seed:#x}"), move |sys| {
            for _ in 0..12 {
                // Faulted evals may fail after the retry budget; the
                // books must balance either way.
                let _ = sys.eval(
                    client,
                    &Expr::Doc {
                        name: "catalog".into(),
                        at: PeerRef::Any,
                    },
                );
            }
        });
    }
}

#[test]
fn folding_is_incremental_not_batch() {
    // Folding a prefix then continuing must equal folding the whole
    // stream in one pass — LiveStats has no end-of-stream fixup step.
    let sink = VecSink::new();
    let (mut sys, client, server) = two_peer(catalog(60, 0.1, 9));
    sys.set_trace_sink(Box::new(sink.clone()));
    let e = naive_apply(selective_query(), client, server);
    sys.eval(client, &e).unwrap();
    sys.flush_trace().unwrap();
    let events = sink.events();
    let mut one_pass = LiveStats::new();
    for e in &events {
        one_pass.fold(e);
    }
    for split in [0, 1, events.len() / 2, events.len() - 1, events.len()] {
        let mut split_fold = LiveStats::new();
        for e in &events[..split] {
            split_fold.fold(e);
        }
        // …time passes, more events arrive…
        for e in &events[split..] {
            split_fold.fold(e);
        }
        assert!(
            split_fold.reconciles_with(sys.metrics(), sys.stats()),
            "split at {split} diverged"
        );
        assert_eq!(split_fold.events(), one_pass.events());
        assert_eq!(
            split_fold.metrics().total_bytes(),
            one_pass.metrics().total_bytes()
        );
        assert_eq!(split_fold.latency().count(), one_pass.latency().count());
    }
}
