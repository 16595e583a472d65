//! Pinned optimizer behaviour *across commits*.
//!
//! The optimizer's unit tests compare two plans of one build, so they
//! cannot see a change to the cost model, the memo key or the search
//! order that shifts every plan the same way. This test pins, for the
//! seven `query_ship` plan shapes (`benchmark/src/workloads/query_ship.rs`),
//! experiment E8's four shapes and the relay triangle, digests recorded
//! once on a known-good commit: the chosen plan's fingerprint text
//! (FNV-1a + length), its rule trace, the number of candidates explored,
//! the memo hits, and the bit patterns of the estimated cost.
//!
//! A mismatch prints the drifted rows; re-pin them only for a change
//! that is *meant* to alter plan choice or search order.

use axml::net::frame::fnv1a64;
use axml::prelude::*;
use std::fmt::Write as _;

mod shapes;

use shapes::*;

/// Digests recorded on a known-good commit, before the statistics cache
/// and the streaming emitter. The two `double-use` rows were re-pinned
/// when rule (13) became a query rewrite: the shared query is priced
/// from its argument's own statistics, no longer from an unknown
/// temporary document. Every row but the relay triangle's was re-pinned
/// again when the model came to price a value the same however a plan
/// spells it (range predicates from the data, results sized from their
/// templates, a wrapped or pushed value read through the same view): each
/// new plan measures fewer bytes and no more virtual time than the one
/// it replaced (`tests/optimizer_ranking.rs` measures them), and
/// `sc-forward` keeps its plan with a new estimate. Ten rows were
/// re-pinned once more when a leaf query came to ship as the text its
/// plan prints: every shipped query's text changed, and rewritten ones
/// gained their return template. `qs/double-use` now shares its read
/// (rule (13)) before delegating; `sc-forward` and the relay triangle
/// ship no query text and held.
#[rustfmt::skip]
const GOLDEN: [(&str, &str); 12] = [
    ("qs/remote-selection-1", "plan=d86ffd9b22dee8a7/439 trace=[\"R11-push-selections\"] explored=365 hits=60 cost=405426594af4f0d8/4087680000000000/4000000000000000"),
    ("qs/remote-selection-10", "plan=31e158af7188b283/302 trace=[\"R10-delegate\"] explored=355 hits=57 cost=40545f972474538f/409d2c0000000000/4000000000000000"),
    ("qs/remote-selection-50", "plan=200a2bf2512d664f/302 trace=[\"R10-delegate\"] explored=355 hits=57 cost=40552ce703afb7e9/40b6f50000000000/4000000000000000"),
    ("qs/query-over-sc", "plan=610c562d272bb217/292 trace=[\"R14-relocate\"] explored=317 hits=41 cost=40543d21ff2e48e8/4092a80000000000/4000000000000000"),
    ("qs/generic-doc-selection", "plan=31e158af7188b283/302 trace=[\"R10-delegate\", \"R9-generic\"] explored=435 hits=56 cost=40545f972474538f/409d2c0000000000/4000000000000000"),
    ("qs/double-use", "plan=6136b2e1dcab63ae/330 trace=[\"R13-share-transfer\", \"R10-delegate\"] explored=477 hits=83 cost=40542c154c985f07/408ae80000000000/4000000000000000"),
    ("qs/sc-forward", "plan=b51ea3b0ae37dbfd/144 trace=[\"R15-sc-relocate\"] explored=290 hits=35 cost=40542083126e978d/4083d80000000000/4000000000000000"),
    ("e8/remote-selection", "plan=6f1c414f869740e6/303 trace=[\"R10-delegate\"] explored=134 hits=54 cost=405452fec56d5cfa/4099540000000000/4000000000000000"),
    ("e8/query-over-sc", "plan=610c562d272bb217/292 trace=[\"R14-relocate\"] explored=134 hits=35 cost=40543851eb851eb8/4091300000000000/4000000000000000"),
    ("e8/generic-doc-selection", "plan=6f1c414f869740e6/303 trace=[\"R10-delegate\", \"R9-generic\"] explored=209 hits=51 cost=405452fec56d5cfa/4099540000000000/4000000000000000"),
    ("e8/double-use", "plan=421f7113926592d1/326 trace=[\"R13-share-transfer\", \"R10-delegate\"] explored=184 hits=67 cost=40544353f7ced916/40948c0000000000/4000000000000000"),
    ("relay-triangle", "plan=5b60ea13b53a3f8d/163 trace=[\"R12-add-stop\"] explored=46 hits=75 cost=400407b352a84381/40d4cc4000000000/4010000000000000"),
];

/// a↔b is terrible, a↔relay and relay↔b are fast (rule (12) right-to-left).
fn relay_system() -> AxmlSystem {
    AxmlSystem::builder()
        .peers(["a", "b", "relay"])
        .link(
            "a",
            "b",
            LinkCost {
                latency_ms: 500.0,
                bytes_per_ms: 10.0,
                per_msg_bytes: 256,
            },
        )
        .link("a", "relay", LinkCost::lan())
        .link("b", "relay", LinkCost::lan())
        .doc("b", "catalog", catalog(100, 0.2, 12))
        .build()
        .unwrap()
}

fn relay_shape() -> (&'static str, Expr) {
    (
        "relay-triangle",
        Expr::EvalAt {
            peer: DATA_1,
            expr: Box::new(Expr::Send {
                dest: SendDest::Peer(CLIENT),
                payload: Box::new(doc_at("catalog", DATA_1)),
            }),
        },
    )
}

/// The digest line of one search.
fn digest(sys: &AxmlSystem, naive: &Expr) -> String {
    let model = CostModel::from_system(sys);
    let mut obs = Obs::new();
    let plan = Optimizer::standard().optimize_with(&model, CLIENT, naive, &mut obs);
    let text = plan.expr.fingerprint();
    format!(
        "plan={:016x}/{} trace={:?} explored={} hits={} cost={:016x}/{:016x}/{:016x}",
        fnv1a64(text.as_bytes()),
        text.len(),
        plan.trace,
        plan.explored,
        obs.metrics.memo_hits,
        plan.cost.time_ms.to_bits(),
        plan.cost.bytes.to_bits(),
        plan.cost.messages.to_bits(),
    )
}

#[test]
fn optimizer_behaviour_matches_the_pinned_digests() {
    let mut rows: Vec<(&str, String)> = Vec::new();
    let sys = query_ship_system();
    for (name, naive) in query_ship_shapes() {
        rows.push((name, digest(&sys, &naive)));
    }
    let sys = e8_system();
    for (name, naive) in e8_shapes() {
        rows.push((name, digest(&sys, &naive)));
    }
    let (name, naive) = relay_shape();
    rows.push((name, digest(&relay_system(), &naive)));

    let mut drifted = String::new();
    for (i, (name, actual)) in rows.iter().enumerate() {
        if GOLDEN.get(i) != Some(&(*name, actual.as_str())) {
            writeln!(drifted, "    ({name:?}, {actual:?}),").unwrap();
        }
    }
    assert!(
        drifted.is_empty() && rows.len() == GOLDEN.len(),
        "optimizer behaviour drifted from the pinned digests; actual rows:\n{drifted}"
    );
}
