//! E9's fan-in gate: duplicates are reused, and the deep-clone tax
//! stays gone.
//!
//! `CopyStats` counters are process-wide, so this must be the only test
//! in its binary: inside the `axml-bench` unit-test binary the other
//! tests' copies, running on parallel threads, land in the same delta.

#[test]
fn fan_in_duplicates_collapse_without_the_clone_tax() {
    let before = axml_xml::stats::CopyStats::snapshot();
    let m = axml_bench::experiments::e9_scalability::fan_in(8, 400);
    let d = axml_xml::stats::CopyStats::snapshot().delta_since(&before);
    // Deep-clone regression gate. Remaining copies are the required
    // result materializations in the output trees plus one COW of the
    // small batch tree; the pre-redesign clone tax (whole-catalog deep
    // clones, ~35 KB per clone at this size) must stay gone, and
    // sharing must be doing real work.
    assert!(
        d.bytes_copied <= 60_000,
        "fan-in deep-copies too much (clone tax is back?): copied {} bytes",
        d.bytes_copied
    );
    // Sharing must be doing real work (the provider's catalog arena
    // moves as a handle, never as a deep clone).
    assert!(d.bytes_shared > 0, "fan-in moved nothing by handle: {d:?}");
    // The provider evaluates 8 duplicate calls once and reuses the
    // answer 7 times. Counted, not timed: a closed scan over an
    // unchanged catalog is walked once either way, so the wall clock
    // (E9's table keeps it) does not tell reuse apart reliably.
    let metrics = &m.report.metrics;
    assert_eq!(
        (metrics.service_calls, metrics.service_reuses),
        (8, 8 - 1),
        "duplicates did not collapse onto one evaluation"
    );
}
