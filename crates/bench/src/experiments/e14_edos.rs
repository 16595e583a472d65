//! **E14 — EDOS-scale replica network: faults and memory discipline at
//! 10⁴–10⁵ peers.** A uniform-WAN network of `n` peers
//! carries a handful of catalog mirrors (`catalog@any` replicas plus a
//! declarative `names@any` service). A fixed population of clients —
//! each wired to a *home* mirror over a LAN-cost override, so `Closest`
//! has a real gradient to descend — issues Zipf-distributed polls (80%
//! `d@any` fetches, 20% `s@any` service calls) under seeded churn: a
//! background drop rate plus outage windows on the hottest route, with
//! the standard retry policy and failover on.
//!
//! Each scale is one row with its **transcript fingerprint**: per-poll
//! serialized results (or typed errors) plus the final
//! message/byte/drop/makespan counters, FNV-1a-hashed — the same seed
//! prints the same fingerprint on every run (asserted at 10⁴ peers by
//! `tests/scale_stress.rs::edos_fingerprint_is_reproducible_from_its_seed`).
//!
//! Memory discipline rides along: each row records the process peak RSS
//! and interner pressure ([`axml_obs::MemStats`]) — the numbers the
//! tier-1 smoke budget-checks — and the scheduler's saturation-audited
//! `u64` ledger is attached to every row's report, where an
//! unbalanced ledger flags the row unreconciled.
//!
//! Scales: 10⁴ peers by default; `AXML_E14=full` adds the 10⁵-peer row;
//! `AXML_E14=smoke` (set by `--smoke` on the `experiments` binary) runs
//! the default scale and additionally enforces the peak-RSS budget,
//! printing an `rss-budget-ok` note the CI gate greps for.

use crate::report::{tail_cells, Report};
use crate::workload::{catalog, Zipf};
use axml_core::prelude::*;
use axml_net::frame::fnv1a64;
use axml_prng::SplitMix64;

/// Polls per configuration (each is one `eval` at a Zipf-drawn client).
pub const POLLS: usize = 400;

/// Zipf exponent for client popularity.
pub const ZIPF_S: f64 = 1.1;

/// Background drop probability.
pub const DROP: f64 = 0.02;

/// Workload seed: poll schedule, client choice and fault plan all
/// derive from it, so every run replays bit-for-bit.
pub const SEED: u64 = 0xE14_5EED;

/// Peak-RSS budget enforced in smoke mode (MiB). The 10⁴-peer release
/// run fits in a fraction of this; the budget exists to catch a
/// regression back to dense per-peer structures, which would blow
/// through it immediately.
pub const SMOKE_RSS_BUDGET_MB: f64 = 1536.0;

/// One measured scale.
struct Cell {
    ok: usize,
    fingerprint: u64,
    live: LiveStats,
    run: RunReport,
    mem: MemStats,
    drops: u64,
    retries: u64,
    failovers: u64,
}

/// Mirror count for a given scale.
fn mirror_count(n: usize) -> usize {
    (n / 1250).clamp(4, 16)
}

/// Client-population size for a given scale.
fn client_count(n: usize) -> usize {
    (n / 8).clamp(4, 192)
}

/// Build the replica network: `n` peers on a uniform WAN, `k` mirrors
/// hosting the catalog + `names` service, `c` clients with LAN-cost
/// home-mirror routes. Construction is O(n + k + c): the uniform
/// topology is a rule, not a matrix, and only the home routes exist as
/// explicit link overrides.
fn build(n: usize) -> (AxmlSystem, Vec<PeerId>, Vec<PeerId>) {
    let topo = Topology::Uniform {
        n,
        cost: LinkCost::wan(),
    };
    let mut sys = AxmlSystem::with_topology(&topo);
    sys.set_pick_policy(PickPolicy::Closest);
    sys.set_retry_policy(RetryPolicy::standard());
    sys.set_failover(true);

    let k = mirror_count(n);
    let c = client_count(n);
    let tree = catalog(40, 0.1, SEED);
    let mirrors: Vec<PeerId> = (0..k).map(|j| PeerId((j * n / k) as u32)).collect();
    for &m in &mirrors {
        sys.install_replica(m, "catalog", "catalog", tree.clone())
            .unwrap();
        sys.register_declarative_service(m, "names", r#"doc("catalog")//pkg/@name"#)
            .unwrap();
        sys.catalog_mut().add_service_replica("names", m, "names");
    }
    let mirror_set: std::collections::BTreeSet<u32> = mirrors.iter().map(|m| m.0).collect();
    let mut clients = Vec::with_capacity(c);
    for i in 0..c {
        let mut idx = ((i + 1) * n / (c + 1)) as u32;
        while mirror_set.contains(&idx) {
            idx += 1;
        }
        clients.push(PeerId(idx));
    }
    // Home routes: client rank r lives on mirror r mod k's LAN. Closest
    // then resolves both @any classes to the home mirror — until churn
    // takes the route down and failover re-picks a WAN mirror.
    for (r, &cl) in clients.iter().enumerate() {
        sys.net_mut().set_link(cl, mirrors[r % k], LinkCost::lan());
    }
    // Churn: background drops everywhere plus outage windows on the
    // hottest route (rank-0 client → its home mirror). Outage checks
    // are a linear scan per send, so the window list stays small.
    let mut plan = FaultPlan::new(SEED).drop_prob(DROP);
    for j in 0..12 {
        let start = 50.0 + 900.0 * j as f64;
        plan = plan.outage_directed(clients[0], mirrors[0], start, start + 350.0);
    }
    sys.net_mut().set_fault_plan(plan);
    (sys, clients, mirrors)
}

/// Run one cell: the full Zipf poll schedule, returning the transcript
/// fingerprint and the row's observability.
fn run_cell(n: usize, polls: usize) -> Cell {
    let (mut sys, clients, _mirrors) = build(n);
    let sink = LiveSink::new();
    sys.set_trace_sink(Box::new(sink.clone()));
    let zipf = Zipf::new(clients.len(), ZIPF_S);
    let mut rng = SplitMix64::new(SEED ^ n as u64);
    let mut transcript = String::new();
    let mut ok = 0usize;
    for _ in 0..polls {
        let client = clients[zipf.sample(&mut rng)];
        let (tag, expr) = if rng.gen_bool(0.8) {
            (
                'd',
                Expr::Doc {
                    name: "catalog".into(),
                    at: PeerRef::Any,
                },
            )
        } else {
            (
                's',
                Expr::Sc {
                    provider: PeerRef::Any,
                    service: "names".into(),
                    params: vec![],
                    forward: vec![],
                },
            )
        };
        let outcome = match sys.eval(client, &expr) {
            Ok(forest) => {
                ok += 1;
                forest
                    .iter()
                    .map(|t| t.serialize())
                    .collect::<Vec<_>>()
                    .join("")
            }
            Err(e) => format!("err:{e}"),
        };
        use std::fmt::Write as _;
        writeln!(transcript, "{}:{tag}:{outcome}", client.0).unwrap();
    }
    // Fold the final counters into the fingerprint: the transcript
    // proves the *results* match, the counters prove the byte-for-byte
    // traffic and virtual timeline did too.
    {
        use std::fmt::Write as _;
        let s = sys.stats();
        let m = sys.metrics();
        writeln!(
            transcript,
            "msgs={} bytes={} dropped={} retries={} failovers={} makespan={:016x}",
            s.total_messages(),
            s.total_bytes(),
            s.total_dropped(),
            m.retries,
            m.failovers,
            s.makespan_ms().to_bits()
        )
        .unwrap();
    }
    let fingerprint = fnv1a64(transcript.as_bytes());
    let (drops, retries, failovers) = (
        sys.metrics().total_dropped(),
        sys.metrics().retries,
        sys.metrics().failovers,
    );
    sys.flush_trace().unwrap();
    let mem = MemStats::snapshot();
    let run = sys.run_report(format!("E14 n={n}")).with_mem(mem);
    Cell {
        ok,
        fingerprint,
        live: sink.stats(),
        run,
        mem,
        drops,
        retries,
        failovers,
    }
}

/// Run E14.
pub fn run() -> Report {
    let mode = std::env::var("AXML_E14").unwrap_or_default();
    let scales: Vec<usize> = match mode.as_str() {
        "full" => vec![10_000, 100_000],
        _ => vec![10_000],
    };
    let mut r = Report::new(
        "E14",
        "EDOS-scale replica network: churn, failover and peak RSS at 10⁴–10⁵ peers",
        vec![
            "peers",
            "ok",
            "drops",
            "retries",
            "failovers",
            "msgs",
            "makespan ms",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "goodput",
            "peak MiB",
            "fingerprint",
        ],
    );
    let mut peak_mb = 0.0f64;
    for &n in &scales {
        let cell = run_cell(n, POLLS);
        peak_mb = peak_mb.max(cell.mem.peak_rss_mb());
        let mut row = vec![
            n.to_string(),
            format!("{}/{POLLS}", cell.ok),
            cell.drops.to_string(),
            cell.retries.to_string(),
            cell.failovers.to_string(),
            cell.run.stats.total_messages().to_string(),
            format!("{:.0}", cell.run.stats.makespan_ms()),
        ];
        row.extend(tail_cells(&cell.live));
        row.push(format!("{:.0}", cell.mem.peak_rss_mb()));
        row.push(format!("{:016x}", cell.fingerprint));
        r.row_with_run(row, cell.run);
    }
    // The representative run attached to the text report comes from a
    // miniature replica of the same structure — the full-scale reports
    // stay row-attached (JSON) where their per-peer sections belong.
    let mini = run_cell(64, 32);
    r.attach_run(mini.run);
    r.note("fingerprint = FNV-1a over per-poll serialized results/errors + final traffic counters + makespan bits");
    r.note("clients poll Zipf(s=1.1): 80% catalog@any fetches, 20% names@any service calls, churn on the hottest route");
    r.note("peak MiB is process-wide and monotone across rows; the smoke gate budgets the maximum");
    if mode == "smoke" {
        assert!(
            peak_mb < SMOKE_RSS_BUDGET_MB,
            "E14 smoke: peak RSS {peak_mb:.0} MiB exceeds the {SMOKE_RSS_BUDGET_MB:.0} MiB budget"
        );
        r.note(format!(
            "rss-budget-ok: peak {peak_mb:.0} MiB < {SMOKE_RSS_BUDGET_MB:.0} MiB budget"
        ));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down cell exercising the full machinery (the
    /// default-scale row runs in the suite-wide smoke test).
    #[test]
    fn small_scale_cell_replays_and_reconciles() {
        let cell = run_cell(512, 48);
        assert_eq!(
            cell.fingerprint,
            run_cell(512, 48).fingerprint,
            "same seed, same transcript"
        );
        assert!(cell.run.reconciled);
        assert!(cell.ok > 0, "completed no polls");
        let sched = cell.run.sched.as_ref().expect("sched attached");
        assert!(sched.consistent(), "scheduler ledger leaks");
        assert!(cell.live.metrics().total_messages() > 0);
        // Churn left marks: drops and failovers happened.
        assert!(cell.drops > 0, "drop rate must bite");
        assert!(cell.failovers > 0, "outage windows must force failovers");
    }
}
