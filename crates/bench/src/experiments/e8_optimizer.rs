//! **E8 — the optimizer end to end + beam ablation.** For a set of naive
//! plan shapes, compare measured traffic of the naive plan vs the
//! optimizer's output, and sweep the beam width to show the search-cost /
//! plan-quality trade-off.
//!
//! Expected shape: the optimizer matches or beats naive everywhere; most
//! of the win arrives already at small beams (the rule space is shallow);
//! search time grows with beam width.

use crate::report::{fmt_bytes, fmt_ratio, Report};
use crate::workload::{catalog, measure, naive_apply, selective_query};
use axml_core::cost::CostModel;
use axml_core::prelude::*;
use axml_query::Query;
use std::time::Instant;

/// Beam widths swept in the ablation.
pub const BEAMS: &[usize] = &[1, 2, 4, 8, 16];

fn build() -> AxmlSystem {
    let mut sys = AxmlSystem::builder()
        .peers(["client", "data-1", "data-2"])
        .link("client", "data-1", LinkCost::wan())
        .link("client", "data-2", LinkCost::slow())
        .link("data-1", "data-2", LinkCost::lan())
        .doc("data-1", "catalog", catalog(400, 0.05, 0xE8))
        .replica("data-2", "cat-any", "catalog", catalog(400, 0.05, 0xE8))
        .service(
            "data-1",
            "all-pkgs",
            r#"for $p in doc("catalog")//pkg return {$p}"#,
        )
        .build()
        .unwrap();
    let b = sys.peer_id("data-1").unwrap();
    sys.catalog_mut().add_doc_replica("cat-any", b, "catalog");
    sys
}

fn shapes() -> Vec<(&'static str, Expr)> {
    let a = PeerId(0);
    let b = PeerId(1);
    let sel = selective_query();
    vec![
        ("remote-selection", naive_apply(sel.clone(), a, b)),
        (
            "query-over-sc",
            Expr::Apply {
                query: LocatedQuery::new(
                    Query::parse(
                        "fmt",
                        r#"for $t in $0 where $t/size/text() > 100000 return <w>{$t/@name}</w>"#,
                    )
                    .unwrap(),
                    a,
                ),
                args: vec![Expr::Sc {
                    provider: PeerRef::At(b),
                    service: "all-pkgs".into(),
                    params: vec![],
                    forward: vec![],
                }],
            },
        ),
        (
            "generic-doc-selection",
            Expr::Apply {
                query: LocatedQuery::new(sel, a),
                args: vec![Expr::Doc {
                    name: "cat-any".into(),
                    at: PeerRef::Any,
                }],
            },
        ),
        (
            "double-use",
            Expr::Apply {
                query: LocatedQuery::new(
                    Query::parse(
                        "pair",
                        r#"for $x in $0//pkg for $y in $1//pkg
                           where $x/@name = $y/@name and $x/size/text() > 100000
                           return <p>{$x/@name}</p>"#,
                    )
                    .unwrap(),
                    a,
                ),
                args: vec![
                    Expr::Doc {
                        name: "catalog".into(),
                        at: PeerRef::At(b),
                    },
                    Expr::Doc {
                        name: "catalog".into(),
                        at: PeerRef::At(b),
                    },
                ],
            },
        ),
    ]
}

/// One row: search `naive` with `opt` on a fresh system, time the same
/// search again (a reuse of the plan the first one chose), and measure
/// the naive and the chosen plan. The search and the chosen plan's run
/// land in one report.
fn row(r: &mut Report, label: String, title: String, opt: &Optimizer, naive: &Expr) -> RunReport {
    let site = PeerId(0);
    let copy0 = axml_xml::stats::CopyStats::snapshot();
    let mut s2 = build();
    let model = CostModel::from_system(&s2);
    let t0 = Instant::now();
    let plan = opt.optimize_with(&model, site, naive, s2.obs_mut());
    let search_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut warm = Obs::new();
    let t0 = Instant::now();
    let reuse = opt.optimize_with(&model, site, naive, &mut warm);
    let reuse_us = t0.elapsed().as_secs_f64() * 1e6;
    assert_eq!(
        warm.metrics.explored, 0,
        "{label}: the second search is a reuse"
    );
    assert_eq!(reuse.expr.fingerprint(), plan.expr.fingerprint());
    let mut s1 = build();
    let (n1, b1, _, _) = measure(&mut s1, site, naive);
    let out = s2.eval(site, &plan.expr).expect("plan evaluates");
    let (n2, b2) = (out.len(), s2.stats().total_bytes());
    assert_eq!(n1, n2, "{label}: answers must agree");
    let run = s2
        .run_report(title)
        .with_copy(axml_xml::stats::CopyStats::snapshot().delta_since(&copy0));
    r.row_with_run(
        vec![
            label,
            fmt_bytes(b1),
            fmt_bytes(b2),
            fmt_ratio(b1, b2),
            plan.explored.to_string(),
            format!("{search_ms:.1}"),
            format!("{reuse_us:.0}"),
            plan.trace.join("+"),
        ],
        run.clone(),
    );
    run
}

/// Run E8.
pub fn run() -> Report {
    let mut r = Report::new(
        "E8",
        "optimizer: measured naive vs optimized + beam ablation",
        vec![
            "shape/beam",
            "naive B",
            "opt B",
            "ratio",
            "explored",
            "search ms",
            "reuse µs",
            "trace",
        ],
    );
    // Part 1: the four shapes at the standard beam.
    for (name, naive) in shapes() {
        let title = format!("E8 optimized plan ({name})");
        let run = row(
            &mut r,
            name.to_string(),
            title,
            &Optimizer::standard(),
            &naive,
        );
        r.attach_run(run);
    }
    // Part 2: beam ablation on the first shape.
    let naive = shapes().remove(0).1;
    for &beam in BEAMS {
        let mut opt = Optimizer::standard();
        opt.beam_width = beam;
        let title = format!("E8 beam ablation (beam={beam})");
        row(&mut r, format!("beam={beam}"), title, &opt, &naive);
    }
    r.note("ratios > 1 mean the optimizer shipped fewer bytes than naive");
    r.note("small beams already capture most of the win (shallow rule space)");
    r.note("reuse µs: the same search again on the same system, answered from its plan cache");
    r
}

#[cfg(test)]
mod tests {
    #[test]
    fn optimizer_never_loses_and_usually_wins() {
        let r = super::run();
        for row in &r.rows {
            let ratio: f64 = row[3].trim_end_matches('x').parse().unwrap_or(99.0);
            assert!(ratio >= 0.95, "{}: optimizer measurably worse", row[0]);
        }
        // the selective shapes should win big
        let first: f64 = r.rows[0][3].trim_end_matches('x').parse().unwrap();
        assert!(first > 3.0, "remote-selection should improve: {first}");
    }
}
