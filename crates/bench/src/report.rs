//! Experiment result reporting: aligned plain-text tables, optional
//! attached [`RunReport`]s, and a JSON exporter (`--json` on the
//! `experiments` binary).

use axml_obs::json::{array, JsonObject};
use axml_obs::RunReport;
use std::fmt;

/// One experiment's output: a titled table plus free-form notes, plus an
/// optional observability snapshot of a representative run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id, e.g. `"E1"`.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Column headers.
    pub headers: Vec<&'static str>,
    /// Rows of pre-formatted cells.
    pub rows: Vec<Vec<String>>,
    /// Interpretation notes (the "shape" the paper predicts).
    pub notes: Vec<String>,
    /// Observability snapshot of one representative configuration
    /// (definition counts, rule applications, per-peer traffic).
    pub run: Option<RunReport>,
    /// One observability snapshot per table row (parallel to `rows`),
    /// so `--json` carries the full history of the sweep, not just a
    /// representative endpoint. Rows appended with [`Report::row`] get
    /// `None`; use [`Report::row_with_run`] to attach one.
    pub row_runs: Vec<Option<RunReport>>,
}

impl Report {
    /// Start a report.
    pub fn new(id: &'static str, title: &'static str, headers: Vec<&'static str>) -> Self {
        Report {
            id,
            title,
            headers,
            rows: Vec::new(),
            notes: Vec::new(),
            run: None,
            row_runs: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
        self.row_runs.push(None);
    }

    /// Append a row together with the [`RunReport`] measured for it.
    pub fn row_with_run(&mut self, cells: Vec<String>, run: RunReport) {
        self.row(cells);
        *self.row_runs.last_mut().unwrap() = Some(run);
    }

    /// Rows paired with their runs (for reconciliation checks).
    pub fn rows_with_runs(&self) -> impl Iterator<Item = (&[String], Option<&RunReport>)> + '_ {
        self.rows
            .iter()
            .map(Vec::as_slice)
            .zip(self.row_runs.iter().map(Option::as_ref))
    }

    /// Append an interpretation note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Attach the observability snapshot of a representative run.
    pub fn attach_run(&mut self, run: RunReport) {
        self.run = Some(run);
    }

    /// The report as a JSON object: id, title, headers, rows, notes, and
    /// the attached run report (if any).
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str("id", self.id).str("title", self.title);
        o.str_array("headers", self.headers.iter().copied());
        let rows = array(self.rows.iter().map(|row| {
            let cells: Vec<String> = row
                .iter()
                .map(|c| format!("\"{}\"", axml_obs::json::escape(c)))
                .collect();
            format!("[{}]", cells.join(","))
        }));
        o.raw("rows", &rows);
        o.str_array("notes", self.notes.iter().map(String::as_str));
        match &self.run {
            Some(run) => o.raw("run", &run.to_json()),
            None => o.raw("run", "null"),
        };
        let row_runs = array(self.row_runs.iter().map(|r| match r {
            Some(run) => run.to_json(),
            None => "null".to_string(),
        }));
        o.raw("row_runs", &row_runs);
        o.finish()
    }

    /// The per-row sweep history as a small text plot: for every row
    /// with an attached run, the sweep value (first cell) against total
    /// definitions fired and rewrite rules accepted in that row's
    /// measurement — the shape of the semantics across the sweep, next
    /// to the byte counts the table already shows.
    fn sweep_plot(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let runs: Vec<(&str, &RunReport)> = self
            .rows
            .iter()
            .zip(&self.row_runs)
            .filter_map(|(row, run)| Some((row[0].as_str(), run.as_ref()?)))
            .collect();
        if runs.is_empty() {
            return Ok(());
        }
        let defs = |r: &RunReport| r.metrics.defs().iter().map(|&(_, n)| n).sum::<u64>();
        let rules = |r: &RunReport| r.metrics.rules().map(|(_, s)| s.accepted).sum::<u64>();
        let max_defs = runs.iter().map(|(_, r)| defs(r)).max().unwrap_or(0).max(1);
        let max_rules = runs.iter().map(|(_, r)| rules(r)).max().unwrap_or(0).max(1);
        let axis_w = runs
            .iter()
            .map(|(v, _)| v.len())
            .max()
            .unwrap_or(0)
            .max(self.headers[0].len());
        const BAR: usize = 24;
        let bar = |n: u64, max: u64| {
            let filled = ((n as f64 / max as f64) * BAR as f64).round() as usize;
            format!("{:█<filled$}{:·<rest$}", "", "", rest = BAR - filled)
        };
        writeln!(
            f,
            "  per-row runs ({} vs definitions fired / rules accepted):",
            self.headers[0]
        )?;
        for (v, r) in &runs {
            writeln!(
                f,
                "  {v:>axis_w$}  defs {} {:>4}   rules {} {:>4}{}",
                bar(defs(r), max_defs),
                defs(r),
                bar(rules(r), max_rules),
                rules(r),
                if r.reconciled {
                    ""
                } else {
                    "  ⚠ unreconciled"
                }
            )?;
        }
        Ok(())
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n=== {} — {} ===", self.id, self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, c) in cells.iter().enumerate() {
                write!(f, "{:>w$}  ", c, w = widths[i])?;
            }
            writeln!(f)
        };
        let headers: Vec<String> = self.headers.iter().map(|s| s.to_string()).collect();
        line(f, &headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            line(f, row)?;
        }
        self.sweep_plot(f)?;
        for n in &self.notes {
            writeln!(f, "  · {n}")?;
        }
        if let Some(run) = &self.run {
            writeln!(f)?;
            write!(f, "{run}")?;
        }
        Ok(())
    }
}

/// Tail-latency and goodput cells for a sweep row, from a live-folded
/// event stream: p50/p95/p99 delivery latency (ms, log₂-bucket upper
/// bounds — ≤ 2× relative error, exact at the max) and goodput as
/// delivered bytes per *virtual* second over the folded span. Returns
/// `["-"; 4]` when the stream carried no cross-peer deliveries.
pub fn tail_cells(live: &axml_obs::LiveStats) -> Vec<String> {
    let h = live.latency();
    if h.count() == 0 || live.last_ms() <= 0.0 {
        return vec!["-".into(); 4];
    }
    let goodput = live.metrics().total_bytes() as f64 / live.last_ms() * 1000.0;
    vec![
        format!("{:.1}", h.p50_ms()),
        format!("{:.1}", h.p95_ms()),
        format!("{:.1}", h.p99_ms()),
        format!("{}/s", fmt_bytes(goodput as u64)),
    ]
}

/// Format a byte count compactly.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1_000_000 {
        format!("{:.2} MB", b as f64 / 1_000_000.0)
    } else if b >= 1_000 {
        format!("{:.1} KB", b as f64 / 1_000.0)
    } else {
        format!("{b} B")
    }
}

/// Format a ratio (`a / b`) with a guard against division by zero.
pub fn fmt_ratio(a: u64, b: u64) -> String {
    if b == 0 {
        "∞".to_string()
    } else {
        format!("{:.1}x", a as f64 / b as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut r = Report::new("E0", "demo", vec!["k", "bytes"]);
        r.row(vec!["1".into(), "100".into()]);
        r.row(vec!["100".into(), "2".into()]);
        r.note("a note");
        let s = r.to_string();
        assert!(s.contains("E0 — demo"), "{s}");
        assert!(s.contains("· a note"), "{s}");
        assert!(s.lines().count() >= 6);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut r = Report::new("E0", "demo", vec!["a", "b"]);
        r.row(vec!["only-one".into()]);
    }

    #[test]
    fn json_export() {
        let mut r = Report::new("E0", "demo", vec!["k", "bytes"]);
        r.row(vec!["1".into(), "100".into()]);
        r.note("shape \"note\"");
        let json = r.to_json();
        assert!(json.contains("\"id\":\"E0\""), "{json}");
        assert!(json.contains("\"rows\":[[\"1\",\"100\"]]"), "{json}");
        assert!(json.contains("\\\"note\\\""), "escaped: {json}");
        assert!(json.contains("\"run\":null"), "{json}");
        let run = RunReport::new(
            "rep",
            &axml_obs::EvalMetrics::new(),
            &axml_net::NetStats::new(),
        );
        r.attach_run(run);
        assert!(r.to_json().contains("\"run\":{\"title\":\"rep\""));
        assert!(r.to_string().contains("=== rep ==="));
    }

    #[test]
    fn per_row_runs_plot_and_export() {
        use axml_obs::TraceEvent;
        let mut metrics = axml_obs::EvalMetrics::new();
        for (def, expr) in [(1, "tree"), (7, "apply")] {
            metrics.fold(&TraceEvent::Definition {
                def,
                peer: axml_xml::ids::PeerId(0),
                expr: expr.into(),
                at_ms: 0.0,
            });
        }
        metrics.fold(&TraceEvent::RuleAttempted {
            rule: "R10-delegate".into(),
            accepted: true,
            cost: 0.0,
        });
        let stats = axml_net::NetStats::new();
        let mut r = Report::new("E0", "demo", vec!["k", "bytes"]);
        r.row(vec!["1".into(), "100".into()]);
        r.row_with_run(
            vec!["2".into(), "50".into()],
            RunReport::new("k=2", &metrics, &stats),
        );
        assert_eq!(r.row_runs.len(), 2);
        assert!(r.row_runs[0].is_none() && r.row_runs[1].is_some());
        let pairs: Vec<_> = r.rows_with_runs().collect();
        assert_eq!(pairs[1].0[0], "2");
        assert_eq!(pairs[1].1.unwrap().title, "k=2");
        // JSON: one entry per row, null for run-less rows.
        let json = r.to_json();
        assert!(
            json.contains("\"row_runs\":[null,{\"title\":\"k=2\""),
            "{json}"
        );
        // Display: sweep plot shows the run row's defs/rules bars.
        let text = r.to_string();
        assert!(text.contains("per-row runs"), "{text}");
        assert!(text.contains("defs") && text.contains("rules"), "{text}");
        assert!(text.contains('█'), "bars drawn: {text}");
        // A run-less report draws no plot.
        let mut plain = Report::new("E0", "plain", vec!["a"]);
        plain.row(vec!["x".into()]);
        assert!(!plain.to_string().contains("per-row runs"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(12), "12 B");
        assert_eq!(fmt_bytes(12_345), "12.3 KB");
        assert_eq!(fmt_bytes(12_345_678), "12.35 MB");
        assert_eq!(fmt_ratio(100, 10), "10.0x");
        assert_eq!(fmt_ratio(1, 0), "∞");
    }
}
