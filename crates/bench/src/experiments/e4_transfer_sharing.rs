//! **E4 — rule (13): transfer sharing.** A query uses the same remote
//! document `k` times; the naive plan transfers it `k` times. The shared
//! plan is what [`R13ShareTransfer`] makes of it, applied until it
//! proposes nothing: the query reads one argument wherever it read any of
//! the `k`, so the document crosses once.
//!
//! Expected shape: naive traffic grows linearly in `k`; shared traffic is
//! flat; speedup ≈ `k`. The shared plan leaves Σ as it found it.

use crate::report::{fmt_bytes, fmt_ratio, Report};
use crate::workload::{catalog, measure, two_peer};
use axml_core::cost::CostModel;
use axml_core::expr::{Expr, LocatedQuery, PeerRef};
use axml_core::rules::{R13ShareTransfer, RewriteRule};
use axml_query::Query;

/// How many times the document is used.
pub const USES: &[usize] = &[1, 2, 3, 4];

fn multi_use_query(k: usize) -> Query {
    // k independent scans of k parameters, joined trivially.
    let mut src = String::new();
    for i in 0..k {
        src.push_str(&format!("for $x{i} in ${i}//pkg[size > 100000] "));
    }
    src.push_str("where ");
    if k == 1 {
        src.push_str("exists($x0) ");
    } else {
        for i in 1..k {
            if i > 1 {
                src.push_str("and ");
            }
            src.push_str(&format!("$x0/@name = $x{i}/@name "));
        }
    }
    src.push_str("return <m>{$x0/@name}</m>");
    Query::parse("multi", &src).unwrap()
}

/// Run E4.
pub fn run() -> Report {
    let mut r = Report::new(
        "E4",
        "transfer sharing (rule 13): k uses of one remote document",
        vec!["k", "results", "naive B", "shared B", "naive/shared"],
    );
    for &k in USES {
        let copy0 = axml_xml::stats::CopyStats::snapshot();
        let tree = catalog(150, 0.1, 0xE4);
        let q = multi_use_query(k);
        let remote = Expr::Doc {
            name: "catalog".into(),
            at: PeerRef::At(axml_xml::ids::PeerId(1)),
        };

        let (mut sys, client, _server) = two_peer(tree.clone());
        let naive = Expr::Apply {
            query: LocatedQuery::new(q, client),
            args: vec![remote; k],
        };
        let (n1, b1, _m, _t) = measure(&mut sys, client, &naive);

        let (mut sys2, client2, _server2) = two_peer(tree);
        let model = CostModel::from_system(&sys2);
        let mut shared = naive;
        while let Some(next) = R13ShareTransfer.apply_at(client2, &shared, &model).pop() {
            shared = next;
        }
        let (n2, b2, _m2, _t2) = measure(&mut sys2, client2, &shared);
        assert!(
            sys2.peer(client2).docs.is_empty(),
            "the shared plan leaves no document at the client (k={k})"
        );
        assert_eq!(n1, n2, "strategies must agree at k={k}");
        let run = sys2
            .run_report(format!("E4 shared plan (k={k})"))
            .with_copy(axml_xml::stats::CopyStats::snapshot().delta_since(&copy0));
        r.attach_run(run.clone());
        r.row_with_run(
            vec![
                k.to_string(),
                n1.to_string(),
                fmt_bytes(b1),
                fmt_bytes(b2),
                fmt_ratio(b1, b2),
            ],
            run,
        );
    }
    r.note("naive transfers the document once per use; shared once total");
    r
}

#[cfg(test)]
mod tests {
    #[test]
    fn savings_scale_with_k() {
        let r = super::run();
        let ratio = |row: usize| -> f64 { r.rows[row][4].trim_end_matches('x').parse().unwrap() };
        assert!(ratio(0) <= 1.05, "k=1: nothing to share");
        assert!(ratio(1) > 1.7, "k=2 halves traffic: {}", ratio(1));
        assert!(ratio(3) > 3.4, "k=4 quarters traffic: {}", ratio(3));
    }
}
