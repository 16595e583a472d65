//! Does the optimizer choose the plan that measures cheapest?
//!
//! `prop_rules.rs` proves that every rewrite keeps the result; this test
//! checks the *choice* among the rewrites (§3.3). For each `query_ship`
//! and E8 shape of `tests/shapes`, the first [`CANDIDATES`] plans that
//! `rules::all_rewrites` reaches breadth-first from the naive plan are
//! each run on a freshly built system. Every result must equal the naive
//! plan's, and the plan `Optimizer::standard()` chooses must measure
//! within [`BYTES_SLACK`] of the fewest bytes and within [`MS_SLACK`] of
//! the least virtual milliseconds among them. The model's estimated
//! `time_ms` must also order the candidates roughly as their measured
//! times do: Kendall's τ over every pair stays above [`TAU_FLOOR`].
//!
//! On failure the test prints, per shape, the chosen and the cheapest
//! plans and the pairs the model ranks most wrongly.

mod shapes;

use axml::core::rules::{all_rewrites, standard_rules};
use axml::prelude::*;
use shapes::*;
use std::collections::{HashSet, VecDeque};
use std::fmt::Write as _;

/// Candidates run per shape, the naive plan first.
const CANDIDATES: usize = 300;
/// The chosen plan's bytes may exceed the fewest measured by this share.
const BYTES_SLACK: f64 = 0.02;
/// The chosen plan's virtual time may exceed the least measured by this
/// share.
const MS_SLACK: f64 = 0.01;
/// The least Kendall's τ (estimated against measured ms, over every pair
/// of candidates) any shape may show. The lowest measured is 0.916
/// (`qs/double-use`; 0.975 for E8's, 0.999–1.000 for every other shape);
/// the floor leaves room for a small change to the model, not for a shape
/// whose ranking stops tracking the measurement.
const TAU_FLOOR: f64 = 0.85;

/// One candidate plan, estimated and run.
struct Run {
    text: String,
    est_ms: f64,
    bytes: u64,
    ms: f64,
}

/// What a plan leaves behind that its rewrites must reproduce: the
/// result forest and, where a `vault` exists, what was forwarded into it.
fn outcome(sys: &AxmlSystem, result: Vec<Tree>) -> (Vec<Tree>, Vec<Tree>) {
    let vault = (0..sys.peer_count() as u32)
        .filter_map(|p| sys.peer(PeerId(p)).docs.get(&"vault".into()))
        .flat_map(|d| {
            let t = d.tree();
            t.children(t.root())
                .iter()
                .map(|&c| t.subtree(c).unwrap())
                .collect::<Vec<_>>()
        })
        .collect();
    (result, vault)
}

/// Run `plan` at the client of a fresh system.
fn run(build: fn() -> AxmlSystem, plan: &Expr) -> ((Vec<Tree>, Vec<Tree>), u64, f64) {
    let mut sys = build();
    let result = sys
        .eval(CLIENT, plan)
        .unwrap_or_else(|e| panic!("{plan} fails: {e}"));
    let ms = sys.now_ms();
    let bytes = sys.stats().total_bytes();
    (outcome(&sys, result), bytes, ms)
}

/// Kendall's τ-a of two rankings of the same items.
fn kendall_tau(pairs: &[(f64, f64)]) -> f64 {
    let (mut concordant, mut discordant) = (0i64, 0i64);
    for (i, a) in pairs.iter().enumerate() {
        for b in &pairs[i + 1..] {
            let s = (a.0 - b.0).signum() * (a.1 - b.1).signum();
            if s > 0.0 {
                concordant += 1;
            } else if s < 0.0 {
                discordant += 1;
            }
        }
    }
    let n = pairs.len() as f64;
    (concordant - discordant) as f64 / (n * (n - 1.0) / 2.0)
}

/// The checks of one shape; what failed, if anything, as report lines.
fn rank(
    name: &str,
    build: fn() -> AxmlSystem,
    naive: &Expr,
    taus: &mut Vec<(String, f64)>,
) -> String {
    let sys = build();
    let model = CostModel::from_system(&sys);
    let rules = standard_rules();
    let mut seen = HashSet::from([naive.fingerprint()]);
    let mut queue = VecDeque::from([naive.clone()]);
    let mut plans = vec![naive.clone()];
    'bfs: while let Some(e) = queue.pop_front() {
        for (_, c) in all_rewrites(&rules, CLIENT, &e, &model) {
            if seen.insert(c.fingerprint()) {
                plans.push(c.clone());
                queue.push_back(c);
                if plans.len() == CANDIDATES {
                    break 'bfs;
                }
            }
        }
    }
    let (want, _, _) = run(build, naive);
    let measure = |plan: &Expr| {
        let (got, bytes, ms) = run(build, plan);
        assert!(
            forest_equiv(&got.0, &want.0) && forest_equiv(&got.1, &want.1),
            "{name}: {plan} changes the result"
        );
        Run {
            text: plan.to_string(),
            est_ms: model.estimate(CLIENT, plan).cost.time_ms,
            bytes,
            ms,
        }
    };
    let runs: Vec<Run> = plans.iter().map(measure).collect();
    let chosen = measure(&Optimizer::standard().optimize(&model, CLIENT, naive).expr);

    let fewest = runs.iter().min_by_key(|r| r.bytes).unwrap();
    let fastest = runs.iter().min_by(|a, b| a.ms.total_cmp(&b.ms)).unwrap();
    let pairs: Vec<(f64, f64)> = runs.iter().map(|r| (r.est_ms, r.ms)).collect();
    let tau = kendall_tau(&pairs);
    taus.push((name.to_string(), tau));

    let mut report = String::new();
    let bytes_ok =
        chosen.bytes as f64 <= fewest.bytes.min(chosen.bytes) as f64 * (1.0 + BYTES_SLACK);
    let ms_ok = chosen.ms <= fastest.ms.min(chosen.ms) * (1.0 + MS_SLACK);
    if bytes_ok && ms_ok && tau >= TAU_FLOOR {
        return report;
    }
    writeln!(report, "{name}: {} candidates, τ = {tau:.3}", runs.len()).unwrap();
    for (what, r) in [
        ("chosen", &chosen),
        ("fewest bytes", fewest),
        ("least ms", fastest),
    ] {
        writeln!(
            report,
            "  {what:>12}: {} B, {:.3} ms (est. {:.3} ms)  {}",
            r.bytes, r.ms, r.est_ms, r.text
        )
        .unwrap();
    }
    // The pairs the model orders most wrongly: estimated cheaper, measured
    // dearer, by the largest measured gap.
    let mut wrong: Vec<(f64, usize, usize)> = Vec::new();
    for (i, a) in runs.iter().enumerate() {
        for (j, b) in runs.iter().enumerate() {
            if a.est_ms < b.est_ms && a.ms > b.ms {
                wrong.push((a.ms - b.ms, i, j));
            }
        }
    }
    wrong.sort_by(|x, y| y.0.total_cmp(&x.0));
    for &(gap, i, j) in wrong.iter().take(3) {
        writeln!(
            report,
            "  ranked wrongly by {gap:.3} ms:\n    est. {:.3} / measured {:.3} ms: {}\n    est. {:.3} / measured {:.3} ms: {}",
            runs[i].est_ms, runs[i].ms, runs[i].text, runs[j].est_ms, runs[j].ms, runs[j].text
        )
        .unwrap();
    }
    report
}

#[test]
fn the_chosen_plan_measures_cheapest_and_estimates_rank_like_measurements() {
    let mut failures = String::new();
    let mut taus = Vec::new();
    for (name, naive) in query_ship_shapes() {
        failures.push_str(&rank(name, query_ship_system, &naive, &mut taus));
    }
    for (name, naive) in e8_shapes() {
        failures.push_str(&rank(name, e8_system, &naive, &mut taus));
    }
    println!("Kendall's τ per shape: {taus:.3?}");
    assert!(
        failures.is_empty(),
        "the optimizer's choice is off:\n{failures}"
    );
}
