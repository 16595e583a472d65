//! **E9 — scalability with the number of peers.** Three series:
//!
//! 1. *Subscription fan-out*: `n` clients subscribe to one provider's
//!    continuous feed; one published item must cost Θ(n) deliveries —
//!    and nothing more (no rebroadcast of old items).
//! 2. *Optimizer vs peer count*: the search space grows with candidate
//!    relocation targets; measure explored candidates and search time as
//!    peers are added.
//! 3. *Reuse*: `n` identical service calls fan in on one provider,
//!    which evaluates the service once and reuses the answer `n − 1`
//!    times.

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

/// Duplicate-call counts swept in the reuse series.
pub const FANIN: &[usize] = &[2, 4, 8];

/// One measured configuration of the reuse series.
pub struct FanInRun {
    /// Wall-clock milliseconds of the evaluation.
    pub wall_ms: f64,
    /// The run's report; its reused calls are
    /// `report.metrics.service_reuses`.
    pub report: RunReport,
    /// Network bytes.
    pub bytes: u64,
    /// Network messages.
    pub msgs: u64,
    /// Virtual-clock makespan (ms).
    pub makespan: f64,
    /// The run's trace events.
    pub events: Vec<TraceEvent>,
}

/// Build the fan-in system (coordinator + provider, WAN) and run the
/// `n`-duplicate batch, timing the evaluation.
pub fn fan_in(n: usize, catalog_size: usize) -> FanInRun {
    let sink = VecSink::new();
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
        .build()
        .unwrap();
    let coord = sys.peer_id("coord").unwrap();
    sys.set_trace_sink(Box::new(sink.clone()));
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
    sys.flush_trace().unwrap();
    FanInRun {
        wall_ms,
        report: sys.run_report(format!("E9 reuse ({n} duplicate calls)")),
        bytes: sys.stats().total_bytes(),
        msgs: sys.stats().total_messages(),
        makespan: sys.stats().makespan_ms(),
        events: sink.take(),
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
            "wall ms",
            "reused",
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
            ],
            run,
        );
    }
    // --- series 3: duplicate calls reuse one answer ------------------------
    for &n in FANIN {
        let copy0 = axml_xml::stats::CopyStats::snapshot();
        let m = fan_in(n, 1500);
        let run = m
            .report
            .with_copy(axml_xml::stats::CopyStats::snapshot().delta_since(&copy0));
        let mut live = LiveStats::new();
        for e in &m.events {
            live.fold(e);
        }
        let mut cells = vec![
            "reuse".into(),
            n.to_string(),
            fmt_bytes(m.bytes),
            m.msgs.to_string(),
            format!("{:.1}", m.makespan),
            "-".into(),
            "-".into(),
            "-".into(),
            format!("{:.1}", m.wall_ms),
            run.metrics.service_reuses.to_string(),
        ];
        cells.extend(tail_cells(&live));
        r.row_with_run(cells, run);
    }
    r.note("fan-out: one published item costs exactly n deliveries (delta semantics)");
    r.note("fan-out makespan: deliveries overlap — critical path, not the serial byte sum");
    r.note("optimizer: candidates grow with relocation targets; memoization bounds the blow-up");
    r.note("reuse: the provider evaluates n duplicate calls once and reuses the answer n-1 times");
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
