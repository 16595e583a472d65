//! E9's fan-in gate: drivers agree, duplicates are reused, and the
//! deep-clone tax stays gone.
//!
//! `CopyStats` counters are process-wide, so this must be the only test
//! in its binary: inside the `axml-bench` unit-test binary the other
//! tests' copies, running on parallel threads, land in the same delta.

#[test]
fn par_eval_reports_match_and_duplicates_collapse() {
    let before = axml_xml::stats::CopyStats::snapshot();
    let m = axml_bench::experiments::e9_scalability::par_eval(8, 400);
    let d = axml_xml::stats::CopyStats::snapshot().delta_since(&before);
    assert_eq!(
        m.seq_report.to_json(),
        m.par_report.to_json(),
        "drivers diverged"
    );
    // Deep-clone regression gate. Remaining copies are the required
    // result materializations in the output trees (~45 KB here plus
    // one COW of the small batch tree per driver); the pre-redesign
    // clone tax (whole-catalog deep clones, ~35 KB per clone at this
    // size) must stay gone, and sharing must be doing real work.
    assert!(
        d.bytes_copied <= 60_000,
        "fan-in deep-copies too much (clone tax is back?): copied {} bytes",
        d.bytes_copied
    );
    // Sharing must be doing real work (the provider's catalog arena
    // moves as a handle, never as a deep clone).
    assert!(d.bytes_shared > 0, "fan-in moved nothing by handle: {d:?}");
    // The provider evaluates 8 duplicate calls once and reuses the
    // answer 7 times under both drivers, read from the reports they
    // already agree on; the sequential driver has no pool, so no
    // driver counter moves. Counted, not timed: a closed scan over an
    // unchanged catalog is walked once either way, so the wall clocks
    // (E9's table keeps them) do not tell the runs apart reliably.
    for (driver, report) in [("sequential", &m.seq_report), ("parallel", &m.par_report)] {
        assert_eq!(
            (report.metrics.service_calls, report.metrics.service_reuses),
            (8, 8 - 1),
            "{driver}: duplicates did not collapse onto one evaluation"
        );
    }
    assert_eq!(
        m.seq_stats,
        axml_core::ParallelStats::default(),
        "the sequential driver ran a pool"
    );
}
