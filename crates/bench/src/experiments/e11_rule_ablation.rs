//! **E11 — rule ablation.** Remove one equivalence rule at a time from
//! the optimizer and measure the best plan it can still find on a
//! scenario where every rule family matters (selective query over a
//! replicated catalog behind a partially-degraded network, plus a
//! double-use shape).
//!
//! Expected shape: dropping a rule that carries the winning derivation
//! (delegation/pushing) collapses the improvement for the shapes that
//! need it; redundant rules degrade gracefully because other derivations
//! reach equivalent plans (R10 vs R14, R11 vs R16) — evidence for the
//! paper's claim that the algebra's rules *compose* into strategies
//! rather than acting alone.

use crate::report::{fmt_bytes, Report};
use crate::workload::{catalog, measure, naive_apply, selective_query};
use axml_core::cost::CostModel;
use axml_core::prelude::*;
use axml_core::rules::{standard_rules, RewriteRule};

fn build() -> AxmlSystem {
    AxmlSystem::builder()
        .peers(["client", "data", "relay"])
        // data is far; the relay path is decent
        .link(
            "client",
            "data",
            LinkCost {
                latency_ms: 300.0,
                bytes_per_ms: 100.0,
                per_msg_bytes: 256,
            },
        )
        .link("client", "relay", LinkCost::lan())
        .link("data", "relay", LinkCost::lan())
        .doc("data", "catalog", catalog(300, 0.05, 0xE11))
        .build()
        .unwrap()
}

/// The standard rules minus the named one.
fn rules_without(name: &str) -> Vec<Box<dyn RewriteRule>> {
    standard_rules()
        .into_iter()
        .filter(|r| r.name() != name)
        .collect()
}

/// Run E11.
pub fn run() -> Report {
    let mut r = Report::new(
        "E11",
        "rule ablation: best plan without each rule",
        vec!["configuration", "opt B", "opt ms", "ms vs full", "trace"],
    );
    let site = PeerId(0);
    let naive = naive_apply(selective_query(), site, PeerId(1));

    let evaluate = |config: &str, rules: Vec<Box<dyn RewriteRule>>| {
        let copy0 = axml_xml::stats::CopyStats::snapshot();
        let sys = build();
        let model = CostModel::from_system(&sys);
        let opt = Optimizer::with_rules(rules);
        let mut search = Obs::new();
        let plan = opt.optimize_with(&model, site, &naive, &mut search);
        let mut sys2 = build();
        let (_, bytes, _, ms) = measure(&mut sys2, site, &plan.expr);
        // the row's snapshot: the search's rule counters on top of the
        // already-measured execution traffic
        sys2.obs_mut().metrics.merge(&search.metrics);
        let run = sys2
            .run_report(format!("E11 {config}"))
            .with_copy(axml_xml::stats::CopyStats::snapshot().delta_since(&copy0));
        (bytes, ms, plan.trace, run)
    };

    let (full_bytes, full_ms, full_trace, full_run) = evaluate("full rule set", standard_rules());
    r.attach_run(full_run.clone());
    r.row_with_run(
        vec![
            "full rule set".into(),
            fmt_bytes(full_bytes),
            format!("{full_ms:.1}"),
            "1.00x".into(),
            full_trace.join("+"),
        ],
        full_run,
    );
    let mut names: Vec<&'static str> = standard_rules().iter().map(|r| r.name()).collect();
    names.sort_unstable();
    for name in names {
        let config = format!("without {name}");
        let (bytes, ms, trace, run) = evaluate(&config, rules_without(name));
        r.row_with_run(
            vec![
                config,
                fmt_bytes(bytes),
                format!("{ms:.1}"),
                format!("{:.2}x", ms / full_ms),
                trace.join("+"),
            ],
            run,
        );
    }
    let (none_bytes, none_ms, _, none_run) = evaluate("no rules (naive)", vec![]);
    r.row_with_run(
        vec![
            "no rules (naive)".into(),
            fmt_bytes(none_bytes),
            format!("{none_ms:.1}"),
            format!("{:.2}x", none_ms / full_ms),
            String::new(),
        ],
        none_run,
    );
    r.note("the optimizer minimizes time; removing a rule can trade bytes for time");
    r.note("ms vs full ≈ 1 for redundant rules; >> 1 when the ablated rule was load-bearing");
    r.note("the naive row shows the total head-room the rule set captures");
    r
}

#[cfg(test)]
mod tests {
    #[test]
    fn overlapping_rules_cover_each_other() {
        let r = super::run();
        let ms_ratio = |config: &str| -> f64 {
            r.rows.iter().find(|row| row[0] == config).unwrap()[3]
                .trim_end_matches('x')
                .parse()
                .unwrap()
        };
        // removing a rule never meaningfully improves the measured plan
        // (the optimizer minimizes *estimated* time; tiny measured
        // differences between equally-estimated plans are noise)
        for row in &r.rows {
            let ratio: f64 = row[3].trim_end_matches('x').parse().unwrap();
            assert!(ratio >= 0.90, "{}: ablation improved time?!", row[0]);
        }
        // R10 and R14 are interchangeable for delegation:
        assert!(ms_ratio("without R10-delegate") < 1.5);
        assert!(ms_ratio("without R14-relocate") < 1.5);
        // and the full set is far better than no rules at all
        assert!(ms_ratio("no rules (naive)") > 5.0);
    }
}
