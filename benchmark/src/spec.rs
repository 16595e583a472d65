//! The benchmark's contract: metric names and units as the code emits
//! them, and the reader of `BENCHMARK.json` (bounds, run length) that
//! `diff` and `repeat` judge against. A unit test keeps the two in step.

use axml_obs::json::{self, JsonValue};
use std::path::Path;

/// End-to-end metrics `(name, unit)`, in print order — what a user of
/// the system sees. `failed_op_ratio` and `check_ok` travel as the
/// result line's `failed`/`attempted` and `correct` fields: the
/// contract wants metrics that are never 0 and never constant.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_latency_p50_us", "us"),
    ("op_latency_p95_us", "us"),
    ("wire_bytes_per_op", "B"),
    ("virtual_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`; the prefix names the crate.
pub const PER_LAYER: [(&str, &str); 70] = [
    ("proc.cpu_user_s", "s"),
    ("proc.cpu_sys_s", "s"),
    ("proc.alloc_count_per_op", "count"),
    ("proc.alloc_bytes_per_op", "B"),
    ("proc.op_latency_p99_us", "us"),
    ("proc.op_latency_max_us", "us"),
    ("proc.trace_overhead_ratio", "ratio"),
    ("proc.ref_kernel_us", "us"),
    ("xml.parse_ns_per_byte", "ns/B"),
    ("xml.serialize_ns_per_byte", "ns/B"),
    ("xml.canonical_hash_ns_per_node", "ns/node"),
    ("xml.cow_first_write_us", "us"),
    ("xml.copied_bytes_per_op", "B"),
    ("xml.shared_bytes_per_op", "B"),
    ("xml.cow_bytes_per_op", "B"),
    ("xml.interned_symbols", "count"),
    ("xml.src_lines", "lines"),
    ("xml.pub_items", "count"),
    ("types.validate_ns_per_node", "ns/node"),
    ("types.src_lines", "lines"),
    ("types.pub_items", "count"),
    ("query.parse_us", "us"),
    ("query.eval_us_per_op", "us"),
    ("query.eval_ns_per_input_node", "ns/node"),
    ("query.delta_push_us", "us"),
    ("query.matcher_probe_us", "us"),
    ("query.matcher_register_us", "us"),
    ("query.matcher_remove_us", "us"),
    ("query.matcher_hit_ratio", "ratio"),
    ("query.delta_fresh_ratio", "ratio"),
    ("query.src_lines", "lines"),
    ("query.pub_items", "count"),
    ("net.sched_ns_per_event", "ns"),
    ("net.sched_peak_pending", "count"),
    ("net.sched_cascades", "count"),
    ("net.messages_per_op", "count"),
    ("net.dropped_per_kop", "count"),
    ("net.frame_encode_ns_per_byte", "ns/B"),
    ("net.frame_decode_ns_per_byte", "ns/B"),
    ("net.socket_rtt_small_us", "us"),
    ("net.socket_rtt_large_us", "us"),
    ("net.wire_frames_per_op", "count"),
    ("net.wire_payload_bytes_per_op", "B"),
    ("net.wheel_over_queue_wall_ratio", "ratio"),
    ("net.src_lines", "lines"),
    ("net.pub_items", "count"),
    ("core.cost_model_us_per_op", "us"),
    ("core.optimize_us_per_op", "us"),
    ("core.eval_us_per_op", "us"),
    ("core.feed_us_per_op", "us"),
    ("core.activate_us_per_sub", "us"),
    ("core.unsubscribe_us_per_sub", "us"),
    ("core.engine_self_us_per_op", "us"),
    ("core.plans_explored_per_op", "count"),
    ("core.memo_hit_ratio", "ratio"),
    ("core.rules_accepted_per_op", "count"),
    ("core.defs_fired_per_op", "count"),
    ("core.service_calls_per_op", "count"),
    ("core.retries_per_kop", "count"),
    ("core.failovers_per_kop", "count"),
    ("core.par_over_seq_wall_ratio", "ratio"),
    ("core.shared_over_naive_wall_ratio", "ratio"),
    ("core.src_lines", "lines"),
    ("core.pub_items", "count"),
    ("obs.events_per_op", "count"),
    ("obs.trace_bytes_per_op", "B"),
    ("obs.bin_sink_overhead_ratio", "ratio"),
    ("obs.run_report_us", "us"),
    ("obs.src_lines", "lines"),
    ("obs.pub_items", "count"),
];

/// One bounded end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    /// Metric name.
    pub name: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline's median the metric may worsen by.
    pub bound: f64,
}

/// What `diff` and `repeat` need of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<Bounded>,
    /// Per-layer `(name, unit)`.
    pub per_layer: Vec<(String, String)>,
}

impl Spec {
    /// Parse the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let v = json::parse(text)?;
        let arr = |key: &str| -> Result<&[JsonValue], String> {
            v.get(key)
                .and_then(JsonValue::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` must be an array"))
        };
        let text_of = |item: &JsonValue, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without a `{key}` string"))
        };
        let end_to_end = arr("end_to_end")?
            .iter()
            .map(|m| {
                let better = text_of(m, "better")?;
                Ok(Bounded {
                    name: text_of(m, "name")?,
                    higher_is_better: match better.as_str() {
                        "higher" => true,
                        "lower" => false,
                        other => return Err(format!("BENCHMARK.json: better = `{other}`")),
                    },
                    bound: m
                        .get("bound")
                        .and_then(JsonValue::as_f64)
                        .filter(|b| b.is_finite() && *b >= 0.0)
                        .ok_or("BENCHMARK.json: end-to-end metric without a numeric `bound`")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Spec {
            run_seconds: v
                .get("run_seconds")
                .and_then(JsonValue::as_u64)
                .ok_or("BENCHMARK.json: `run_seconds` must be a whole number")?,
            workloads: arr("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end,
            per_layer: arr("per_layer")?
                .iter()
                .map(|m| Ok((text_of(m, "name")?, text_of(m, "unit")?)))
                .collect::<Result<_, String>>()?,
        })
    }

    /// Read `BENCHMARK.json` from the repo root.
    pub fn load(repo_root: &Path) -> Result<Spec, String> {
        let path = repo_root.join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Spec::parse(&text)
    }

    /// The bound of one end-to-end metric.
    pub fn bounded(&self, name: &str) -> Option<&Bounded> {
        self.end_to_end.iter().find(|b| b.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_code_emits() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let spec = Spec::load(&root).expect("BENCHMARK.json at the repo root");
        let names: Vec<&str> = spec.end_to_end.iter().map(|b| b.name.as_str()).collect();
        let ours: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, ours);
        let layer: Vec<(&str, &str)> = spec
            .per_layer
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect();
        assert_eq!(layer, PER_LAYER.to_vec());
        assert_eq!(spec.workloads, crate::workloads::NAMES);
        assert!(spec.end_to_end.iter().all(|b| b.bound <= 0.25));
        let setup = spec.bounded("setup_s").expect("setup_s is required");
        assert!(!setup.higher_is_better);
        assert!(spec.end_to_end.iter().all(|b| b.bound <= setup.bound));
    }

    #[test]
    fn malformed_specs_are_refused() {
        assert!(Spec::parse("{}").is_err());
        assert!(Spec::parse(r#"{"run_seconds":1,"workloads":[],"end_to_end":[{"name":"x","better":"sideways","bound":0.1}],"per_layer":[]}"#).is_err());
        assert!(Spec::parse(r#"{"run_seconds":1,"workloads":[],"end_to_end":[{"name":"x","better":"lower"}],"per_layer":[]}"#).is_err());
    }
}
