//! **E9 — scalability with the number of peers.** Three series:
//!
//! 1. *Subscription fan-out*: `n` clients subscribe to one provider's
//!    continuous feed; one published item must cost Θ(n) deliveries —
//!    and nothing more (no rebroadcast of old items).
//! 2. *Optimizer vs peer count*: the search space grows with candidate
//!    relocation targets; measure explored candidates and search time as
//!    peers are added.
//! 3. *Parallel evaluation driver*: `n` identical service calls fan in
//!    on one provider; the sequential reference evaluates the service
//!    `n` times while the parallel driver collapses the duplicates onto
//!    one evaluation — wall-clock speedup with bit-identical reports.

use crate::report::{fmt_bytes, tail_cells, Report};
use crate::workload::{catalog, naive_apply, selective_query};
use axml_core::cost::CostModel;
use axml_core::prelude::*;
use axml_xml::tree::Tree;
use std::time::Instant;

/// Client counts swept in the fan-out series.
pub const CLIENTS: &[usize] = &[2, 4, 8, 16, 32];

/// Peer counts swept in the optimizer series.
pub const PEERS: &[usize] = &[2, 4, 8, 16];

/// Duplicate-call counts swept in the parallel-evaluation series.
pub const FANIN: &[usize] = &[2, 4, 8];

/// One measured configuration of the parallel-evaluation series.
pub struct ParEvalRun {
    /// Wall-clock milliseconds under the sequential reference driver.
    pub seq_wall_ms: f64,
    /// Wall-clock milliseconds under `Parallel { threads: 4 }`.
    pub par_wall_ms: f64,
    /// The sequential run's report.
    pub seq_report: RunReport,
    /// The parallel run's report — must serialize identically to
    /// `seq_report`.
    pub par_report: RunReport,
    /// The sequential run's driver counters (all zero: it collapses
    /// nothing).
    pub seq_stats: ParallelStats,
    /// The parallel run's driver counters: its duplicate collapses.
    pub par_stats: ParallelStats,
    /// Network bytes (identical across drivers by construction).
    pub bytes: u64,
    /// Network messages.
    pub msgs: u64,
    /// Virtual-clock makespan (ms).
    pub makespan: f64,
    /// Trace events from the sequential run (the drivers' reports are
    /// bit-identical, so one stream stands for both).
    pub events: Vec<TraceEvent>,
}

/// Build the fan-in system (coordinator + provider, WAN) and run the
/// `n`-duplicate batch under `driver`, timing the evaluation.
fn par_eval_once(
    n: usize,
    catalog_size: usize,
    driver: DriverKind,
) -> (
    f64,
    RunReport,
    ParallelStats,
    u64,
    u64,
    f64,
    Vec<TraceEvent>,
) {
    let mut sys = AxmlSystem::builder()
        .peers(["coord", "provider"])
        .link("coord", "provider", LinkCost::wan())
        .doc("provider", "catalog", catalog(catalog_size, 0.05, 0xE9))
        .service(
            "provider",
            "scan",
            r#"for $p in doc("catalog")//pkg where $p/size/text() > 100000 return {$p/@name}"#,
        )
        .seed(0xE9)
        .driver(driver)
        .build()
        .unwrap();
    let coord = sys.peer_id("coord").unwrap();
    // Trace only the sequential run: VecSink is single-threaded, and the
    // drivers' reports are asserted bit-identical anyway.
    let sink = VecSink::new();
    let traced = matches!(driver, DriverKind::Sequential);
    if traced {
        sys.set_trace_sink(Box::new(sink.clone()));
    }
    let mut batch = String::from("<batch>");
    for _ in 0..n {
        batch.push_str("<sc><peer>p1</peer><service>scan</service></sc>");
    }
    batch.push_str("</batch>");
    let e = Expr::Tree {
        tree: Tree::parse(&batch).unwrap(),
        at: coord,
    };
    let t0 = Instant::now();
    sys.eval(coord, &e).unwrap();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    if traced {
        sys.flush_trace().unwrap();
    }
    let report = sys.run_report(format!("E9 par-eval ({n} duplicate calls)"));
    (
        wall_ms,
        report,
        sys.parallel_stats(),
        sys.stats().total_bytes(),
        sys.stats().total_messages(),
        sys.stats().makespan_ms(),
        sink.take(),
    )
}

/// Measure one fan-in configuration under both drivers.
pub fn par_eval(n: usize, catalog_size: usize) -> ParEvalRun {
    let (seq_wall_ms, seq_report, seq_stats, bytes, msgs, makespan, events) =
        par_eval_once(n, catalog_size, DriverKind::Sequential);
    let (par_wall_ms, par_report, par_stats, ..) =
        par_eval_once(n, catalog_size, DriverKind::Parallel { threads: 4 });
    ParEvalRun {
        seq_wall_ms,
        par_wall_ms,
        seq_report,
        par_report,
        seq_stats,
        par_stats,
        bytes,
        msgs,
        makespan,
        events,
    }
}

/// Run E9.
pub fn run() -> Report {
    let mut r = Report::new(
        "E9",
        "scalability: subscription fan-out and optimizer search",
        vec![
            "series",
            "n",
            "bytes/item",
            "msgs/item",
            "makespan ms",
            "serial ms",
            "explored",
            "search ms",
            "seq wall ms",
            "par4 wall ms",
            "speedup",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "goodput",
        ],
    );
    // --- series 1: fan-out ------------------------------------------------
    for &n in CLIENTS {
        let copy0 = axml_xml::stats::CopyStats::snapshot();
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
        let mut sys = builder.build().unwrap();
        let provider = sys.peer_id("provider").unwrap();
        for i in 0..n {
            let c = sys.peer_id(&format!("client-{i}")).unwrap();
            sys.activate_document(c, &"inbox".into()).unwrap();
        }
        // Warm up with one item, then measure the marginal cost of one more.
        sys.feed(provider, "feed", Tree::parse("<item>warm</item>").unwrap())
            .unwrap();
        sys.reset_stats();
        // Trace only the measured item so the tail columns describe the
        // marginal deliveries, not the warm-up.
        let sink = VecSink::new();
        sys.set_trace_sink(Box::new(sink.clone()));
        let t0 = sys.now_ms();
        sys.feed(
            provider,
            "feed",
            Tree::parse("<item>measured</item>").unwrap(),
        )
        .unwrap();
        // The engine overlaps the n independent deliveries: the measured
        // makespan (relative to the feed — the virtual clock is absolute)
        // is one critical path, while a strictly sequential evaluator
        // would pay the sum of all transfer times.
        let makespan = sys.stats().makespan_ms() - t0;
        let wan = LinkCost::wan();
        let serial_ms: f64 = (0..n)
            .map(|i| {
                let c = sys.peer_id(&format!("client-{i}")).unwrap();
                let b = sys.stats().link(provider, c).bytes;
                wan.latency_ms + b as f64 / wan.bytes_per_ms
            })
            .sum();
        sys.flush_trace().unwrap();
        let mut live = LiveStats::new();
        for e in &sink.take() {
            live.fold(e);
        }
        let run = sys
            .run_report(format!("E9 fan-out ({n} subscribers, one item)"))
            .with_copy(axml_xml::stats::CopyStats::snapshot().delta_since(&copy0));
        r.attach_run(run.clone());
        let mut cells = vec![
            "fan-out".into(),
            n.to_string(),
            fmt_bytes(sys.stats().total_bytes()),
            sys.stats().total_messages().to_string(),
            format!("{makespan:.1}"),
            format!("{serial_ms:.1}"),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ];
        cells.extend(tail_cells(&live));
        r.row_with_run(cells, run);
    }
    // --- series 2: optimizer search vs peer count --------------------------
    for &n in PEERS {
        let copy0 = axml_xml::stats::CopyStats::snapshot();
        let data = PeerId((n - 1) as u32);
        let mut sys = AxmlSystem::builder()
            .topology(&Topology::Uniform {
                n,
                cost: LinkCost::wan(),
            })
            .doc(data, "catalog", catalog(200, 0.05, 0xE9))
            .build()
            .unwrap();
        let naive = naive_apply(selective_query(), PeerId(0), data);
        let model = CostModel::from_system(&sys);
        // the row's snapshot: the search (for the rule counters) plus one
        // execution of the winning plan (for reconciling traffic)
        let t0 = Instant::now();
        let plan = Optimizer::standard().optimize_with(&model, PeerId(0), &naive, sys.obs_mut());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        sys.eval(PeerId(0), &plan.expr).unwrap();
        let run = sys
            .run_report(format!("E9 optimizer ({n} peers)"))
            .with_copy(axml_xml::stats::CopyStats::snapshot().delta_since(&copy0));
        r.row_with_run(
            vec![
                "optimizer".into(),
                n.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                plan.explored.to_string(),
                format!("{ms:.1}"),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ],
            run,
        );
    }
    // --- series 3: sequential vs parallel evaluation driver -----------------
    for &n in FANIN {
        let copy0 = axml_xml::stats::CopyStats::snapshot();
        let m = par_eval(n, 1500);
        assert_eq!(
            m.seq_report.to_json(),
            m.par_report.to_json(),
            "par-eval n={n}: drivers must produce identical reports"
        );
        // Attach the copy delta only after the drivers' reports have been
        // compared bit-for-bit (the delta spans both runs).
        let run = m
            .par_report
            .with_copy(axml_xml::stats::CopyStats::snapshot().delta_since(&copy0));
        let mut live = LiveStats::new();
        for e in &m.events {
            live.fold(e);
        }
        let speedup = m.seq_wall_ms / m.par_wall_ms.max(1e-9);
        let mut cells = vec![
            "par-eval".into(),
            n.to_string(),
            fmt_bytes(m.bytes),
            m.msgs.to_string(),
            format!("{:.1}", m.makespan),
            "-".into(),
            "-".into(),
            "-".into(),
            format!("{:.1}", m.seq_wall_ms),
            format!("{:.1}", m.par_wall_ms),
            format!("{speedup:.1}x"),
        ];
        cells.extend(tail_cells(&live));
        r.row_with_run(cells, run);
    }
    r.note("fan-out: one published item costs exactly n deliveries (delta semantics)");
    r.note("fan-out makespan: deliveries overlap — critical path, not the serial byte sum");
    r.note("optimizer: candidates grow with relocation targets; memoization bounds the blow-up");
    r.note("par-eval: n duplicate calls collapse onto one evaluation; reports stay bit-identical");
    r.note(
        "tail columns: per-message latency quantiles + goodput folded live from the trace stream",
    );
    r
}

#[cfg(test)]
mod tests {
    #[test]
    fn fanout_is_linear_and_delta_clean() {
        let r = super::run();
        let fanout: Vec<&Vec<String>> = r.rows.iter().filter(|row| row[0] == "fan-out").collect();
        for row in &fanout {
            let n: u64 = row[1].parse().unwrap();
            let msgs: u64 = row[3].parse().unwrap();
            assert_eq!(msgs, n, "one delivery per subscriber, nothing re-sent");
            // overlapped deliveries: makespan strictly below the serial bound
            let makespan: f64 = row[4].parse().unwrap();
            let serial: f64 = row[5].parse().unwrap();
            if n >= 2 {
                assert!(
                    makespan < serial,
                    "n={n}: makespan {makespan} must beat the serial bound {serial}"
                );
            }
        }
    }
}
