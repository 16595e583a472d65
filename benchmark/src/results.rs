//! Result records: the one-line JSON a run prints for the driver, the
//! `BENCH_<pr>.json` ledger file, and the `diff` between two ledgers.

use crate::spec::Spec;
use crate::stats::{quartiles, spread};
use axml_obs::json::{self, JsonObject, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version of the ledger file's layout.
pub const SCHEMA: u64 = 1;

/// What one run of one workload reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every op matched its expected result and every ledger reconciled.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or returned a wrong result.
    pub failed: u64,
    /// `(name, value, unit)` in spec order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// The driver's result line: exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, every value with all the
    /// digits it was measured with.
    pub fn to_json_line(&self) -> String {
        let mut metrics = JsonObject::new();
        for (name, value, unit) in &self.metrics {
            let mut m = JsonObject::new();
            // `{value:?}` keeps every digit and always reads as a float.
            m.raw("value", &finite(*value)).str("unit", unit);
            metrics.raw(name, &m.finish());
        }
        let mut line = JsonObject::new();
        line.bool("correct", self.correct)
            .num_u64("attempted", self.attempted)
            .num_u64("failed", self.failed)
            .raw("metrics", &metrics.finish());
        line.finish()
    }

    /// Parse a result line back (the `bench` command reads its children).
    pub fn parse(line: &str) -> Result<RunResult, String> {
        let v = json::parse(line)?;
        let metrics = match v.get("metrics") {
            Some(JsonValue::Obj(fields)) => fields
                .iter()
                .map(|(name, m)| {
                    let value = m
                        .get("value")
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("metric {name} has no value"))?;
                    let unit = m
                        .get("unit")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| format!("metric {name} has no unit"))?;
                    Ok((name.clone(), value, unit.to_string()))
                })
                .collect::<Result<_, String>>()?,
            _ => return Err("result line has no `metrics` object".into()),
        };
        Ok(RunResult {
            correct: v
                .get("correct")
                .and_then(JsonValue::as_bool)
                .ok_or("result line has no `correct`")?,
            attempted: v
                .get("attempted")
                .and_then(JsonValue::as_u64)
                .ok_or("result line has no `attempted`")?,
            failed: v
                .get("failed")
                .and_then(JsonValue::as_u64)
                .ok_or("result line has no `failed`")?,
            metrics,
        })
    }
}

/// A float as JSON: every digit, `null` when not finite.
fn finite(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// One end-to-end metric of one workload across the runs of a ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Unit.
    pub unit: String,
    /// One value per run, in run order.
    pub values: Vec<f64>,
}

impl Series {
    /// Median over the runs.
    pub fn median(&self) -> f64 {
        quartiles(&self.values).1
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        spread(&self.values)
    }
}

/// One workload's section of a ledger.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadLedger {
    /// End-to-end series by metric name.
    pub end_to_end: BTreeMap<String, Series>,
    /// Per-layer `(value, unit)` by metric name (one traced run).
    pub per_layer: BTreeMap<String, (f64, String)>,
    /// Ops attempted over all runs.
    pub attempted: u64,
    /// Ops failed over all runs.
    pub failed: u64,
    /// Every run was correct.
    pub correct: bool,
}

impl WorkloadLedger {
    /// Failed ÷ attempted.
    pub fn failed_op_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A `BENCH_<pr>.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Git revision measured (`unknown` outside a repository).
    pub git_rev: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Free-form machine note.
    pub machine: String,
    /// Seconds each run measured.
    pub run_seconds: f64,
    /// Seeds of the untraced runs, in run order.
    pub seeds: Vec<u64>,
    /// Sections by workload name.
    pub workloads: BTreeMap<String, WorkloadLedger>,
}

impl Ledger {
    /// Render as JSON, one workload per line group, keys sorted.
    pub fn to_json(&self, spec: &Spec) -> String {
        let mut workloads = JsonObject::new();
        for (name, w) in &self.workloads {
            let mut e2e = JsonObject::new();
            for (metric, s) in &w.end_to_end {
                let (q1, med, q3) = quartiles(&s.values);
                let mut m = JsonObject::new();
                m.str("unit", &s.unit)
                    .raw("median", &finite(med))
                    .raw("q1", &finite(q1))
                    .raw("q3", &finite(q3))
                    .raw("spread", &finite(s.spread()));
                if let Some(b) = spec.bounded(metric) {
                    m.raw("bound", &finite(b.bound));
                }
                m.raw("values", &json::array(s.values.iter().map(|&v| finite(v))));
                e2e.raw(metric, &m.finish());
            }
            let mut layers = JsonObject::new();
            for (metric, (value, unit)) in &w.per_layer {
                let mut m = JsonObject::new();
                m.raw("value", &finite(*value)).str("unit", unit);
                layers.raw(metric, &m.finish());
            }
            let mut section = JsonObject::new();
            section
                .bool("correct", w.correct)
                .num_u64("attempted", w.attempted)
                .num_u64("failed", w.failed)
                .raw("failed_op_ratio", &finite(w.failed_op_ratio()))
                .raw("end_to_end", &e2e.finish())
                .raw("per_layer", &layers.finish());
            workloads.raw(name, &section.finish());
        }
        let mut root = JsonObject::new();
        root.num_u64("schema", SCHEMA)
            .str("git_rev", &self.git_rev)
            .num_u64("nproc", self.nproc as u64)
            .str("machine", &self.machine)
            .raw("run_seconds", &finite(self.run_seconds))
            .raw("seeds", &json::array(self.seeds.iter().map(u64::to_string)))
            .raw("workloads", &workloads.finish());
        // One top-level key per line keeps the file reviewable in a diff.
        root.finish().replace(",\"", ",\n\"") + "\n"
    }

    /// Parse a ledger file.
    pub fn parse(text: &str) -> Result<Ledger, String> {
        let v = json::parse(text)?;
        if v.get("schema").and_then(JsonValue::as_u64) != Some(SCHEMA) {
            return Err(format!("ledger schema is not {SCHEMA}"));
        }
        let text_of = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("ledger has no `{key}`"))
        };
        let fields = |v: Option<&JsonValue>, what: &str| match v {
            Some(JsonValue::Obj(fields)) => Ok(fields.clone()),
            _ => Err(format!("ledger has no `{what}` object")),
        };
        let mut workloads = BTreeMap::new();
        for (name, section) in fields(v.get("workloads"), "workloads")? {
            let mut w = WorkloadLedger {
                attempted: section
                    .get("attempted")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0),
                failed: section
                    .get("failed")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0),
                correct: section
                    .get("correct")
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false),
                ..WorkloadLedger::default()
            };
            for (metric, m) in fields(section.get("end_to_end"), "end_to_end")? {
                let values = m
                    .get("values")
                    .and_then(JsonValue::as_arr)
                    .map(|a| a.iter().filter_map(JsonValue::as_f64).collect())
                    .unwrap_or_default();
                let unit = m
                    .get("unit")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string();
                w.end_to_end.insert(metric, Series { unit, values });
            }
            for (metric, m) in fields(section.get("per_layer"), "per_layer")? {
                let value = m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = m
                    .get("unit")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string();
                w.per_layer.insert(metric, (value, unit));
            }
            workloads.insert(name, w);
        }
        Ok(Ledger {
            git_rev: text_of("git_rev")?,
            nproc: v.get("nproc").and_then(JsonValue::as_u64).unwrap_or(0) as usize,
            machine: text_of("machine")?,
            run_seconds: v
                .get("run_seconds")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
            seeds: v
                .get("seeds")
                .and_then(JsonValue::as_arr)
                .map(|a| a.iter().filter_map(JsonValue::as_u64).collect())
                .unwrap_or_default(),
            workloads,
        })
    }

    /// `(workload, metric, spread, bound)` of every end-to-end series
    /// whose run-to-run spread exceeds its bound. `setup_s` is exempt,
    /// as it is for the driver: it is judged on its median only.
    pub fn spreads_over_bound(&self, spec: &Spec) -> Vec<(String, String, f64, f64)> {
        let mut over = Vec::new();
        for (name, w) in &self.workloads {
            for (metric, s) in &w.end_to_end {
                let Some(b) = spec.bounded(metric) else {
                    continue;
                };
                if metric != "setup_s" && s.values.len() >= 2 && s.spread() > b.bound {
                    over.push((name.clone(), metric.clone(), s.spread(), b.bound));
                }
            }
        }
        over
    }
}

/// How one workload × metric pair compares between two ledgers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the baseline by more than the bound.
    Regression,
    /// A recorded run-to-run spread exceeds the bound: the pair cannot
    /// be told apart from noise.
    Unresolved,
}

/// The comparison of two ledgers.
#[derive(Debug, Clone, PartialEq)]
pub struct Diff {
    /// The printed table, one row per workload × metric.
    pub table: String,
    /// Rows judged [`Verdict::Regression`].
    pub regressions: usize,
    /// Workloads whose `failed_op_ratio` rose or that stopped being
    /// correct.
    pub broken: usize,
}

impl Diff {
    /// Whether the `diff` command should exit non-zero.
    pub fn failed(&self) -> bool {
        self.regressions > 0 || self.broken > 0
    }
}

/// Compare `new` against `base` under the bounds of `spec`.
pub fn diff(spec: &Spec, base: &Ledger, new: &Ledger) -> Diff {
    let mut table = String::new();
    let (mut regressions, mut broken) = (0, 0);
    let _ = writeln!(
        table,
        "{:<12} {:<20} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "base median", "new median", "change", "spread", "bound"
    );
    for workload in &spec.workloads {
        let (Some(b), Some(n)) = (base.workloads.get(workload), new.workloads.get(workload)) else {
            let _ = writeln!(table, "{workload:<12} missing from one of the ledgers");
            broken += 1;
            continue;
        };
        for bounded in &spec.end_to_end {
            let (Some(bs), Some(ns)) = (
                b.end_to_end.get(&bounded.name),
                n.end_to_end.get(&bounded.name),
            ) else {
                continue;
            };
            let (bm, nm) = (bs.median(), ns.median());
            let change = if bm == 0.0 { 0.0 } else { (nm - bm) / bm.abs() };
            let worse_by = if bounded.higher_is_better {
                -change
            } else {
                change
            };
            let noise = bs.spread().max(ns.spread());
            let verdict = if noise > bounded.bound && bounded.name != "setup_s" {
                Verdict::Unresolved
            } else if worse_by > bounded.bound {
                regressions += 1;
                Verdict::Regression
            } else {
                Verdict::Ok
            };
            let _ = writeln!(
                table,
                "{workload:<12} {:<20} {bm:>14.4} {nm:>14.4} {:>+7.2}% {:>6.2}% {:>6.2}%  {verdict:?}",
                bounded.name,
                change * 100.0,
                noise * 100.0,
                bounded.bound * 100.0,
            );
        }
        let verdict = if n.failed_op_ratio() > b.failed_op_ratio() || (b.correct && !n.correct) {
            broken += 1;
            "BROKEN"
        } else {
            "Ok"
        };
        let _ = writeln!(
            table,
            "{workload:<12} {:<20} {:>14.6} {:>14.6} {:>8} {:>7} {:>7}  {verdict} (check_ok {} -> {})",
            "failed_op_ratio",
            b.failed_op_ratio(),
            n.failed_op_ratio(),
            "",
            "",
            "none",
            u8::from(b.correct),
            u8::from(n.correct),
        );
    }
    Diff {
        table,
        regressions,
        broken,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec::parse(
            r#"{"run_seconds":1,"workloads":[{"name":"w","why":"x"}],
                "end_to_end":[{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.05},
                              {"name":"setup_s","unit":"s","better":"lower","bound":0.25}],
                "per_layer":[]}"#,
        )
        .unwrap()
    }

    fn ledger(ops: &[f64], setup: &[f64], failed: u64) -> Ledger {
        let mut w = WorkloadLedger {
            attempted: 100,
            failed,
            correct: failed == 0,
            ..WorkloadLedger::default()
        };
        let series = |unit: &str, values: &[f64]| Series {
            unit: unit.into(),
            values: values.to_vec(),
        };
        w.end_to_end.insert("ops_per_s".into(), series("1/s", ops));
        w.end_to_end.insert("setup_s".into(), series("s", setup));
        w.per_layer
            .insert("core.eval_us_per_op".into(), (12.5, "us".into()));
        Ledger {
            git_rev: "abc".into(),
            nproc: 2,
            machine: "test".into(),
            run_seconds: 1.0,
            seeds: vec![1, 2, 3],
            workloads: BTreeMap::from([("w".to_string(), w)]),
        }
    }

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let r = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                ("setup_s".into(), 0.812_734_561_2, "s".into()),
                ("ops_per_s".into(), 1200.0, "1/s".into()),
            ],
        };
        let line = r.to_json_line();
        assert!(line.contains("0.8127345612"), "{line}");
        assert!(line.contains("1200.0"), "{line}");
        assert!(!line.contains('\n'));
        assert_eq!(RunResult::parse(&line).unwrap(), r);
        let keys: Vec<String> = match json::parse(&line).unwrap() {
            JsonValue::Obj(f) => f.into_iter().map(|(k, _)| k).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn ledger_round_trips() {
        let l = ledger(&[100.0, 101.0, 99.0], &[0.5, 0.6, 0.4], 0);
        let text = l.to_json(&spec());
        assert_eq!(Ledger::parse(&text).unwrap(), l);
        assert!(text.contains("\"spread\""));
        assert!(text.contains("\"bound\""));
    }

    #[test]
    fn diff_flags_regressions_beyond_the_bound_only() {
        let spec = spec();
        let base = ledger(&[100.0, 100.5, 99.5], &[0.5, 0.5, 0.5], 0);
        let same = diff(
            &spec,
            &base,
            &ledger(&[98.0, 98.5, 97.5], &[0.6, 0.6, 0.6], 0),
        );
        assert!(!same.failed(), "{}", same.table);
        let slow = diff(
            &spec,
            &base,
            &ledger(&[90.0, 90.5, 89.5], &[0.5, 0.5, 0.5], 0),
        );
        assert_eq!(slow.regressions, 1, "{}", slow.table);
        let slow_setup = diff(
            &spec,
            &base,
            &ledger(&[100.0, 100.5, 99.5], &[0.7, 0.7, 0.7], 0),
        );
        assert_eq!(slow_setup.regressions, 1, "{}", slow_setup.table);
        let fast = diff(
            &spec,
            &base,
            &ledger(&[120.0, 120.5, 119.5], &[0.5, 0.5, 0.5], 0),
        );
        assert!(!fast.failed(), "{}", fast.table);
    }

    #[test]
    fn diff_marks_noisy_pairs_unresolved_and_failures_broken() {
        let spec = spec();
        let base = ledger(&[100.0, 100.5, 99.5], &[0.5, 0.5, 0.5], 0);
        let noisy = diff(
            &spec,
            &base,
            &ledger(&[70.0, 90.0, 110.0], &[0.5, 0.5, 0.5], 0),
        );
        assert!(
            !noisy.failed() && noisy.table.contains("Unresolved"),
            "{}",
            noisy.table
        );
        let broken = diff(
            &spec,
            &base,
            &ledger(&[100.0, 100.5, 99.5], &[0.5, 0.5, 0.5], 3),
        );
        assert!(broken.failed() && broken.broken == 1, "{}", broken.table);
    }

    #[test]
    fn spreads_over_bound_exempts_setup() {
        let spec = spec();
        let l = ledger(&[70.0, 90.0, 110.0], &[0.1, 0.5, 0.9], 0);
        let over = l.spreads_over_bound(&spec);
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].1, "ops_per_s");
    }
}
