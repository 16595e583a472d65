//! The traced run: every per-layer metric of `BENCHMARK.json`.
//!
//! Three sources, all on the benchmark's side of the crates' public
//! interfaces:
//!
//! * **spans** recorded around each call into a layer during one traced
//!   epoch, and the public counters read at its end;
//! * **layer probes** — the op's own inputs replayed through one layer's
//!   public function (query evaluation inside the traced epoch; parser,
//!   serializer, validator, matcher, scheduler, frame codec and a raw
//!   `peerd` round trip after it);
//! * **twin slices** — the first 5 % of the op stream rerun under each
//!   scheduler, driver and matcher mode, and with a binary trace sink.
//!
//! End-to-end numbers never come from here: sinks, spans and allocation
//! counting are off in the untraced run, and the wall difference between
//! an untraced and the traced epoch is `proc.trace_overhead_ratio`.

use crate::harness::{run_epoch, Epoch, Size, SpanKind, Variant, Workload};
use crate::stats::{median, percentile, sorted};
use crate::workloads::socket_ship::peerd_binary;
use crate::workloads::sub_churn;
use axml_bench::cluster::ProcessCluster;
use axml_core::prelude::*;
use axml_net::frame::{encode_frame, fnv1a64, read_frame, write_frame, write_preamble, Frame};
use axml_net::wheel::Scheduler;
use axml_query::eval::NoDocs;
use axml_query::MatchIndex;
use axml_types::content::Content;
use axml_types::schema::SchemaBuilder;
use axml_xml::equiv::canonical_hash;
use axml_xml::stats::CopyStats;
use axml_xml::tree::Tree;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Per-layer metric values by name.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// The crates that are layers: directory under `crates/`, and the
/// names of their design-weight metrics.
const CRATES: [(&str, &str, &str); 6] = [
    ("xml", "xml.src_lines", "xml.pub_items"),
    ("types", "types.src_lines", "types.pub_items"),
    ("query", "query.src_lines", "query.pub_items"),
    ("net", "net.src_lines", "net.pub_items"),
    ("core", "core.src_lines", "core.pub_items"),
    ("obs", "obs.src_lines", "obs.pub_items"),
];

/// Median wall time of `f`, in ns: at least 5 calls, and as many more
/// as fit in ~40 ms.
fn time_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    let budget = Duration::from_millis(40);
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (started.elapsed() < budget && samples.len() < 10_000) {
        let t0 = Instant::now();
        black_box(f());
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A `Write` that counts and discards — `io::sink` with a ledger.
struct CountingWriter(Rc<Cell<u64>>);

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.set(self.0.get() + buf.len() as u64);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A `BinSink` over a [`CountingWriter`] that also counts events.
struct Tap {
    sink: BinSink<CountingWriter>,
    events: Rc<Cell<u64>>,
}

impl TraceSink for Tap {
    fn record(&mut self, event: TraceEvent) {
        self.events.set(self.events.get() + 1);
        self.sink.record(event);
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.sink.flush()
    }
}

/// Source lines and `pub` items of one crate's `src/` tree — the design
/// weight whose trajectory the ledger keeps.
pub fn source_weight(src: &Path) -> std::io::Result<(u64, u64)> {
    let (mut lines, mut items) = (0, 0);
    let mut entries: Vec<_> = std::fs::read_dir(src)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            let (l, i) = source_weight(&path)?;
            lines += l;
            items += i;
        } else if path.extension().is_some_and(|e| e == "rs") {
            for line in std::fs::read_to_string(&path)?.lines() {
                lines += 1;
                let rest = line.trim_start();
                let declares = rest.strip_prefix("pub ").is_some_and(|r| {
                    [
                        "fn ", "struct ", "enum ", "trait ", "const ", "static ", "type ", "mod ",
                        "use ",
                    ]
                    .iter()
                    .any(|kw| r.starts_with(kw))
                        || r.starts_with("unsafe fn ")
                        || r.starts_with("async fn ")
                });
                items += u64::from(declares);
            }
        }
    }
    Ok((lines, items))
}

/// `xml.*` and `types.*` probes over the workload's largest document.
/// Returns the bytes one COW materialization of that document copies.
fn document_probes(xml: &str, out: &mut LayerMetrics) -> Result<f64, String> {
    let tree = Tree::parse(xml).map_err(|e| format!("probe document: {e}"))?;
    let nodes = tree.live_len() as f64;
    out.insert(
        "xml.parse_ns_per_byte",
        time_ns(|| Tree::parse(xml).map(|t| t.live_len())) / xml.len() as f64,
    );
    let text = tree.serialize();
    out.insert(
        "xml.serialize_ns_per_byte",
        time_ns(|| tree.serialize().len()) / text.len() as f64,
    );
    out.insert(
        "xml.canonical_hash_ns_per_node",
        time_ns(|| canonical_hash(&tree, tree.root())) / nodes,
    );
    // First write to a shared arena: clone is a handle bump, the first
    // mutation materializes the copy.
    let mut cow_ns = Vec::new();
    let before = CopyStats::snapshot();
    for _ in 0..9 {
        let mut shared = tree.clone();
        let t0 = Instant::now();
        let root = shared.root();
        shared.add_element(root, "probe");
        cow_ns.push(t0.elapsed().as_nanos() as f64);
        black_box(&shared);
    }
    let cow = CopyStats::snapshot().delta_since(&before);
    out.insert("xml.cow_first_write_us", median(&cow_ns) / 1e3);
    let bytes_per_cow = ratio(cow.bytes_copied as f64, cow.cow_materializations as f64);

    let schema = SchemaBuilder::new()
        .ty("CatalogT", Content::star(Content::elem("pkg", "PkgT")))
        .ty(
            "PkgT",
            Content::seq([
                Content::elem("size", "TextT"),
                Content::elem("desc", "TextT"),
            ]),
        )
        .ty("BoardT", Content::star(Content::elem("item", "TextT")))
        .ty("TextT", Content::Text)
        .build()
        .map_err(|e| format!("probe schema: {e}"))?;
    let ty = if xml.starts_with("<board") {
        "BoardT"
    } else {
        "CatalogT"
    };
    schema
        .validate(&tree, ty)
        .map_err(|e| format!("probe document does not validate as {ty}: {e}"))?;
    out.insert(
        "types.validate_ns_per_node",
        time_ns(|| schema.validate(&tree, ty).is_ok()) / nodes,
    );
    Ok(bytes_per_cow)
}

/// `query.*` micro-probes: parser, incremental delta push, and the
/// shared matching index at `sub_churn`'s per-board population.
fn query_probes(query_src: &str, out: &mut LayerMetrics) -> Result<(), String> {
    out.insert(
        "query.parse_us",
        time_ns(|| Query::parse("probe", query_src).is_ok()) / 1e3,
    );

    let watch = Query::parse(
        "watch",
        r#"for $p in $0//pkg where $p/size/text() > 100000 return {$p/@name}"#,
    )
    .map_err(|e| e.to_string())?;
    let mut cont = watch.continuous(&NoDocs).map_err(|e| e.to_string())?;
    let mut push_ns = Vec::new();
    for i in 0..300 {
        let size = if i % 3 == 0 { 150_000 + i } else { i * 100 };
        let batch = Tree::parse(&format!(
            r#"<batch><pkg name="pkg-{i}"><size>{size}</size></pkg></batch>"#
        ))
        .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        black_box(cont.push(0, batch).map_err(|e| e.to_string())?.len());
        push_ns.push(t0.elapsed().as_nanos() as f64);
    }
    out.insert("query.delta_push_us", median(&push_ns) / 1e3);

    let per_board = sub_churn::SUBSCRIPTIONS / sub_churn::BOARDS;
    let queries: Vec<Query> = (0..sub_churn::TOPICS)
        .map(|t| {
            Query::parse("watch", &sub_churn::Plan::service(0, t).1).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut index = MatchIndex::new("board-0".into());
    let mut register_ns = Vec::with_capacity(per_board);
    for id in 0..per_board {
        let q = &queries[id % queries.len()];
        let t0 = Instant::now();
        black_box(index.register(id as u64, q));
        register_ns.push(t0.elapsed().as_nanos() as f64);
    }
    out.insert("query.matcher_register_us", median(&register_ns) / 1e3);
    let delta = Tree::parse(r#"<item topic="t7">probe</item>"#).map_err(|e| e.to_string())?;
    let expected = per_board / sub_churn::TOPICS;
    if index.probe(&delta).len() != expected {
        return Err(format!(
            "matcher probe hit {} subscriptions, expected {expected}",
            index.probe(&delta).len()
        ));
    }
    out.insert(
        "query.matcher_probe_us",
        time_ns(|| index.probe(&delta).len()) / 1e3,
    );
    let mut remove_ns = Vec::with_capacity(per_board);
    for id in 0..per_board {
        let t0 = Instant::now();
        black_box(index.remove(id as u64));
        remove_ns.push(t0.elapsed().as_nanos() as f64);
    }
    out.insert("query.matcher_remove_us", median(&remove_ns) / 1e3);
    Ok(())
}

/// `net.*` micro-probes: the default scheduler at the observed queue
/// depth, the frame codec over a document-sized payload, and raw
/// `Msg`→`Ack` round trips against one real `peerd`.
fn net_probes(payload: &[u8], peak_pending: u64, out: &mut LayerMetrics) -> Result<(), String> {
    let depth = peak_pending.max(1);
    let mut sched: Scheduler<u32> = Scheduler::new(SchedulerKind::default());
    let (mut now, mut seq) = (0.0f64, 0u64);
    // Deterministic pseudo-delays in the range the link costs produce.
    let delay = |seq: u64| 0.2 + (seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44) as f64 / 1024.0;
    for _ in 0..depth {
        sched.push(now + delay(seq), seq, 0);
        seq += 1;
    }
    const EVENTS: u64 = 200_000;
    let t0 = Instant::now();
    for _ in 0..EVENTS {
        let (at, _, item) = sched.pop().expect("scheduler kept at depth");
        now = at;
        sched.push(now + delay(seq), seq, black_box(item));
        seq += 1;
    }
    out.insert(
        "net.sched_ns_per_event",
        t0.elapsed().as_nanos() as f64 / EVENTS as f64,
    );

    let frame = Frame::Msg {
        from: 0,
        to: 1,
        payload: payload.to_vec(),
    };
    let encoded = encode_frame(7, &frame);
    out.insert(
        "net.frame_encode_ns_per_byte",
        time_ns(|| encode_frame(7, &frame).len()) / encoded.len() as f64,
    );
    out.insert(
        "net.frame_decode_ns_per_byte",
        time_ns(|| read_frame(&mut &encoded[..]).is_ok()) / encoded.len() as f64,
    );

    let cluster = ProcessCluster::launch_with(&peerd_binary()?, 1)
        .map_err(|e| format!("rtt probe: launching peerd: {e}"))?;
    let rtt = (|| -> Result<(f64, f64), axml_net::frame::FrameError> {
        let stream = TcpStream::connect(cluster.addrs()[0])?;
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        write_preamble(&mut writer)?;
        let mut seq = 0u64;
        let mut round_trip = |frame: &Frame, want: Option<(u64, u32)>| {
            let t0 = Instant::now();
            write_frame(&mut writer, seq, frame)?;
            writer.flush()?;
            let (reply_seq, reply) = read_frame(&mut reader)?;
            let took = t0.elapsed().as_nanos() as f64;
            let acked = match (&reply, want) {
                (Frame::Ack { digest, len }, Some(w)) => (*digest, *len) == w,
                (Frame::Bye, None) => true,
                _ => false,
            };
            if reply_seq != seq || !acked {
                return Err(axml_net::frame::FrameError::Malformed(format!(
                    "unexpected reply to frame {seq}: {reply:?}"
                )));
            }
            seq += 1;
            Ok(took)
        };
        let name = "probe";
        round_trip(
            &Frame::Hello {
                peer: 0,
                name: name.into(),
            },
            Some((fnv1a64(name.as_bytes()), name.len() as u32)),
        )?;
        let mut measure = |bytes: usize, trips: usize| {
            let payload = vec![0x5Au8; bytes];
            let want = Some((fnv1a64(&payload), bytes as u32));
            let frame = Frame::Msg {
                from: 0,
                to: 0,
                payload,
            };
            let samples: Result<Vec<f64>, _> =
                (0..trips).map(|_| round_trip(&frame, want)).collect();
            samples.map(|s| median(&s) / 1e3)
        };
        let small = measure(64, 400)?;
        let large = measure(256 * 1024, 40)?;
        round_trip(&Frame::Bye, None)?;
        Ok((small, large))
    })()
    .map_err(|e| format!("rtt probe: {e}"))?;
    cluster
        .join(Duration::from_secs(10))
        .map_err(|e| format!("rtt probe: {e}"))?;
    out.insert("net.socket_rtt_small_us", rtt.0);
    out.insert("net.socket_rtt_large_us", rtt.1);
    Ok(())
}

/// Mean op latency (µs, at the reference kernel's nominal cost) of a
/// slice of the op stream under `variant`, with `sink` attached to the
/// ops.
fn slice_us<W: Workload>(
    plan: &W::Plan,
    variant: Variant,
    n: usize,
    sink: Option<Box<dyn TraceSink>>,
) -> Result<f64, String> {
    let epoch = run_epoch::<W>(plan, variant, n, false, sink)?;
    if epoch.ledger.failed > 0 {
        return Err(format!(
            "{}: {} ops failed in a twin slice",
            W::NAME,
            epoch.ledger.failed
        ));
    }
    Ok(epoch.norm_mean_latency_us())
}

/// Span-, counter- and copy-derived metrics of the traced epoch.
fn epoch_metrics(traced: &Epoch, base: &Epoch, bytes_per_cow: f64, out: &mut LayerMetrics) {
    let l = &traced.ledger;
    let ops = l.ops as f64;
    let span_us = |kind| traced.tracer.total(kind).0 as f64 / 1e3;
    let per_unit_us = |kind| {
        let (ns, units) = traced.tracer.total(kind);
        ratio(ns as f64 / 1e3, units as f64)
    };
    let lat = sorted(
        &traced
            .latencies_ns
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    out.insert("proc.alloc_count_per_op", traced.allocs.0 as f64 / ops);
    out.insert("proc.alloc_bytes_per_op", traced.allocs.1 as f64 / ops);
    out.insert("proc.op_latency_p99_us", percentile(&lat, 99.0));
    out.insert("proc.op_latency_max_us", lat.last().copied().unwrap_or(0.0));
    out.insert(
        "proc.trace_overhead_ratio",
        ratio(traced.norm_mean_latency_us(), base.norm_mean_latency_us()),
    );
    // The per-layer timings are raw wall times; this says how fast the
    // machine was while they were taken (nominal: `refkernel::NOMINAL_US`).
    out.insert("proc.ref_kernel_us", traced.mean_ref_us());

    out.insert(
        "xml.copied_bytes_per_op",
        traced.copy.bytes_copied as f64 / ops,
    );
    out.insert(
        "xml.shared_bytes_per_op",
        traced.copy.bytes_shared as f64 / ops,
    );
    // An estimate: `CopyStats` counts COW events, not their bytes.
    out.insert(
        "xml.cow_bytes_per_op",
        bytes_per_cow * traced.copy.cow_materializations as f64 / ops,
    );

    let (probe_ns, probe_nodes) = traced.tracer.total(SpanKind::QueryProbe);
    out.insert("query.eval_us_per_op", probe_ns as f64 / 1e3 / ops);
    out.insert(
        "query.eval_ns_per_input_node",
        ratio(probe_ns as f64, probe_nodes as f64),
    );
    out.insert(
        "query.matcher_hit_ratio",
        ratio(l.matcher_hits as f64, l.matcher_probes as f64),
    );
    out.insert(
        "query.delta_fresh_ratio",
        ratio(
            l.delta_fresh as f64,
            (l.delta_fresh + l.delta_suppressed) as f64,
        ),
    );

    out.insert("net.sched_peak_pending", l.sched_peak_pending as f64);
    out.insert("net.sched_cascades", l.sched_cascades as f64);
    out.insert("net.messages_per_op", l.messages as f64 / ops);
    out.insert("net.dropped_per_kop", l.dropped as f64 * 1e3 / ops);
    out.insert("net.wire_frames_per_op", l.wire_frames as f64 / ops);
    out.insert(
        "net.wire_payload_bytes_per_op",
        l.wire_payload_bytes as f64 / ops,
    );

    out.insert(
        "core.cost_model_us_per_op",
        span_us(SpanKind::CostModel) / ops,
    );
    out.insert("core.optimize_us_per_op", span_us(SpanKind::Optimize) / ops);
    out.insert("core.eval_us_per_op", span_us(SpanKind::Eval) / ops);
    out.insert("core.feed_us_per_op", span_us(SpanKind::Feed) / ops);
    out.insert("core.activate_us_per_sub", per_unit_us(SpanKind::Activate));
    out.insert(
        "core.unsubscribe_us_per_sub",
        per_unit_us(SpanKind::Unsubscribe),
    );
    // Engine self time: the spans that run the engine, minus the query
    // evaluation they cover (as replayed by the layer probe).
    let engine_us = span_us(SpanKind::Eval)
        + span_us(SpanKind::Feed)
        + span_us(SpanKind::Activate)
        + span_us(SpanKind::Unsubscribe);
    out.insert(
        "core.engine_self_us_per_op",
        (engine_us - probe_ns as f64 / 1e3).max(0.0) / ops,
    );
    out.insert("core.plans_explored_per_op", l.explored as f64 / ops);
    out.insert(
        "core.memo_hit_ratio",
        ratio(l.memo_hits as f64, (l.memo_hits + l.explored) as f64),
    );
    out.insert("core.rules_accepted_per_op", l.rules_accepted as f64 / ops);
    out.insert("core.defs_fired_per_op", l.defs_fired as f64 / ops);
    out.insert("core.service_calls_per_op", l.service_calls as f64 / ops);
    out.insert("core.retries_per_kop", l.retries as f64 * 1e3 / ops);
    out.insert("core.failovers_per_kop", l.failovers as f64 * 1e3 / ops);

    out.insert("obs.run_report_us", traced.run_report_s * 1e6);
}

/// Run the traced measurement of one workload and return every
/// per-layer metric, plus `(attempted, failed, correct)` of its epochs.
pub fn trace_run<W: Workload>(
    seed: u64,
    size: Size,
    repo_root: &Path,
) -> Result<(LayerMetrics, u64, u64, bool), String> {
    let plan = W::plan(seed, size)?;
    let n = W::epoch_len(&plan);
    let mut out = LayerMetrics::new();

    let base = run_epoch::<W>(&plan, Variant::default(), n, false, None)?;
    let traced = run_epoch::<W>(&plan, Variant::default(), n, true, None)?;
    let bytes_per_cow = document_probes(W::probe_doc(&plan), &mut out)?;
    epoch_metrics(&traced, &base, bytes_per_cow, &mut out);
    query_probes(W::probe_query(&plan), &mut out)?;
    net_probes(
        W::probe_doc(&plan).as_bytes(),
        traced.ledger.sched_peak_pending,
        &mut out,
    )?;

    // Twin slices: the first 5 % of the stream under each mode of each
    // twin mechanism, compared on mean op latency.
    let slice = (n / 20).max(20).min(n);
    let twin = |variant: Variant| slice_us::<W>(&plan, variant, slice, None);
    let scheduler = |kind| Variant {
        scheduler: Some(kind),
        ..Variant::default()
    };
    let driver = |kind| Variant {
        driver: Some(kind),
        ..Variant::default()
    };
    let matcher = |mode| Variant {
        matcher: Some(mode),
        ..Variant::default()
    };
    out.insert(
        "net.wheel_over_queue_wall_ratio",
        ratio(
            twin(scheduler(SchedulerKind::Wheel))?,
            twin(scheduler(SchedulerKind::Queue))?,
        ),
    );
    out.insert(
        "core.par_over_seq_wall_ratio",
        ratio(
            twin(driver(DriverKind::Parallel { threads: 0 }))?,
            twin(driver(DriverKind::Sequential))?,
        ),
    );
    out.insert(
        "core.shared_over_naive_wall_ratio",
        ratio(
            twin(matcher(MatcherMode::Shared))?,
            twin(matcher(MatcherMode::Naive))?,
        ),
    );
    let (bytes, events) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
    let tap = Tap {
        sink: BinSink::new(CountingWriter(Rc::clone(&bytes))),
        events: Rc::clone(&events),
    };
    let tapped = slice_us::<W>(&plan, Variant::default(), slice, Some(Box::new(tap)))?;
    out.insert("obs.events_per_op", events.get() as f64 / slice as f64);
    out.insert("obs.trace_bytes_per_op", bytes.get() as f64 / slice as f64);
    out.insert(
        "obs.bin_sink_overhead_ratio",
        ratio(tapped, twin(Variant::default())?),
    );

    out.insert(
        "xml.interned_symbols",
        axml_xml::symbol::interner_stats().0 as f64,
    );
    for (dir, lines_key, items_key) in CRATES {
        let src = repo_root.join("crates").join(dir).join("src");
        let (lines, items) =
            source_weight(&src).map_err(|e| format!("reading {}: {e}", src.display()))?;
        out.insert(lines_key, lines as f64);
        out.insert(items_key, items as f64);
    }
    let (user, sys) = crate::proc::cpu_seconds();
    out.insert("proc.cpu_user_s", user);
    out.insert("proc.cpu_sys_s", sys);

    let attempted = base.ledger.ops + traced.ledger.ops;
    let failed = base.ledger.failed + traced.ledger.failed;
    let correct = failed == 0
        && base.ledger.reconciled
        && traced.ledger.reconciled
        && base.ledger == traced.ledger;
    Ok((out, attempted, failed, correct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_weight_counts_lines_and_pub_items() {
        let dir = std::env::temp_dir().join(format!("axml-perf-weight-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        std::fs::write(
            dir.join("a.rs"),
            "pub fn f() {}\npub(crate) fn g() {}\n    pub struct S;\nfn h() {}\n",
        )
        .unwrap();
        std::fs::write(dir.join("sub/b.rs"), "pub enum E {}\n// pub fn no\n").unwrap();
        std::fs::write(dir.join("sub/notes.txt"), "pub fn ignored() {}\n").unwrap();
        let got = source_weight(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(got, (6, 3));
    }

    #[test]
    fn counting_writer_discards_and_counts() {
        let n = Rc::new(Cell::new(0));
        let mut w = CountingWriter(Rc::clone(&n));
        w.write_all(b"hello").unwrap();
        w.write_all(b"!").unwrap();
        assert_eq!(n.get(), 6);
    }

    #[test]
    fn time_ns_takes_at_least_five_samples() {
        let mut calls = 0;
        let ns = time_ns(|| {
            calls += 1;
            std::thread::sleep(Duration::from_millis(1));
        });
        assert!(calls >= 5);
        assert!(ns >= 1e6);
    }
}
