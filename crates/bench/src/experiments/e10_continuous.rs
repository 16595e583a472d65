//! **E10 — continuous queries: incremental vs recompute.** Stream `n`
//! trees into a continuous query and compare the semi-naive incremental
//! evaluator against full re-evaluation per arrival.
//!
//! Expected shape: total work of re-evaluation is quadratic in the stream
//! length (each arrival reprocesses the whole prefix); incremental is
//! linear. Both produce identical cumulative outputs (property-tested in
//! `axml-query`); here we measure the time curves.

use crate::report::Report;
use axml_query::eval::NoDocs;
use axml_query::Query;
use axml_xml::tree::Tree;
use std::time::Instant;

/// Stream lengths swept.
pub const LENGTHS: &[usize] = &[10, 50, 100, 250, 500];

fn item(i: usize) -> Tree {
    // every third package is "big" so even short streams produce output
    let size = if i.is_multiple_of(3) {
        150_000 + i
    } else {
        i * 100
    };
    Tree::parse(&format!(
        r#"<batch><pkg name="pkg-{i}"><size>{size}</size></pkg></batch>"#
    ))
    .unwrap()
}

fn the_query() -> Query {
    Query::parse(
        "watch",
        r#"for $p in $0//pkg where $p/size/text() > 100000 return {$p/@name}"#,
    )
    .unwrap()
}

/// Run E10.
pub fn run() -> Report {
    let mut r = Report::new(
        "E10",
        "continuous queries: incremental delta vs recompute-per-arrival",
        vec![
            "stream len",
            "outputs",
            "incremental µs",
            "recompute µs",
            "speedup",
        ],
    );
    for &n in LENGTHS {
        let q = the_query();
        // incremental
        let t0 = Instant::now();
        let mut cont = q.continuous(&NoDocs).unwrap();
        let mut inc_out = 0usize;
        for i in 0..n {
            inc_out += cont.push(0, item(i)).unwrap().len();
        }
        let inc_us = t0.elapsed().as_secs_f64() * 1e6;
        // recompute per arrival: evaluate over the whole prefix each time
        // and count only results beyond the previous total.
        let t1 = Instant::now();
        let mut state: Vec<Tree> = Vec::new();
        let mut seen = 0usize;
        let mut rec_out = 0usize;
        for i in 0..n {
            state.push(item(i));
            let all = q.eval_batch(std::slice::from_ref(&state)).unwrap();
            rec_out += all.len() - seen;
            seen = all.len();
        }
        let rec_us = t1.elapsed().as_secs_f64() * 1e6;
        assert_eq!(inc_out, rec_out, "both strategies emit the same totals");
        // per-row snapshot: the same delta semantics over a live system
        // streaming this row's number of items (scaled down — the live
        // engine is the subject of the reconciliation check, not the
        // timing columns)
        r.row_with_run(
            vec![
                n.to_string(),
                inc_out.to_string(),
                format!("{inc_us:.0}"),
                format!("{rec_us:.0}"),
                format!("{:.1}x", rec_us / inc_us.max(1.0)),
            ],
            live_subscription_snapshot(n.min(LIVE_ITEM_CAP)),
        );
    }
    r.note("recompute reprocesses the whole prefix per arrival: quadratic total work");
    r.note("the semi-naive evaluator touches only the new tree: linear total work");
    r.attach_run(live_subscription_snapshot(2));
    r
}

/// Cap on items streamed through the per-row live system (the snapshot
/// demonstrates delta shipping; it need not replay the full in-process
/// stream).
const LIVE_ITEM_CAP: usize = 25;

/// The same delta semantics on a live two-peer system, as an
/// observability snapshot: one subscription, `n_items` distinct feeds
/// plus one duplicate (which ships: streams are multisets). Every feed
/// is answered from the appended item alone, so nothing is suppressed.
fn live_subscription_snapshot(n_items: usize) -> axml_core::prelude::RunReport {
    use axml_core::prelude::*;
    let copy0 = axml_xml::stats::CopyStats::snapshot();
    let mut sys = AxmlSystem::builder()
        .peers(["provider", "client"])
        .link("provider", "client", LinkCost::wan())
        .doc("provider", "feed", "<feed/>")
        .service(
            "provider",
            "items",
            r#"for $i in doc("feed")/item return {$i}"#,
        )
        .doc(
            "client",
            "inbox",
            r#"<inbox><sc><peer>p0</peer><service>items</service></sc></inbox>"#,
        )
        .build()
        .unwrap();
    let provider = sys.peer_id("provider").unwrap();
    let client = sys.peer_id("client").unwrap();
    sys.activate_document(client, &"inbox".into()).unwrap();
    for i in 0..n_items.max(1) {
        sys.feed(
            provider,
            "feed",
            Tree::parse(&format!("<item>i{i}</item>")).unwrap(),
        )
        .unwrap();
    }
    // the first item again: only the new (multiset) copy ships
    sys.feed(provider, "feed", Tree::parse("<item>i0</item>").unwrap())
        .unwrap();
    sys.run_report(format!(
        "E10 live subscription ({n_items} items + 1 duplicate)"
    ))
    .with_copy(axml_xml::stats::CopyStats::snapshot().delta_since(&copy0))
}

#[cfg(test)]
mod tests {
    #[test]
    fn incremental_beats_recompute_on_long_streams() {
        let r = super::run();
        let speedup_last: f64 = r.rows.last().unwrap()[4]
            .trim_end_matches('x')
            .parse()
            .unwrap();
        let speedup_first: f64 = r.rows[0][4].trim_end_matches('x').parse().unwrap();
        assert!(
            speedup_last > speedup_first,
            "advantage must grow with stream length: {speedup_first} → {speedup_last}"
        );
        assert!(
            speedup_last > 2.0,
            "long streams: clear win ({speedup_last})"
        );
    }
}
