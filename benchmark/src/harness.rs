//! The measuring loop shared by every workload.
//!
//! **Load shape.** Closed loop, one client thread, one op in flight:
//! `AxmlSystem::eval`/`feed` are blocking calls on a single-process
//! coordinator, which is how applications call it.
//!
//! **Epochs.** A run is a sequence of *epochs*. Each epoch builds a fresh
//! system ([`Workload::setup`], timed as `setup_s`) and replays the same
//! seeded op stream over it, so every count (`wire_bytes_per_op`,
//! `virtual_ms_per_op`, messages, drops, retries…) repeats exactly no
//! matter how many epochs the `--seconds` budget lets a run finish, and
//! a document that grows under the ops (the `sub_churn` boards) is the
//! same size at the same op on every commit. Epochs repeat until the
//! measuring time is used up; the run reports the median set-up time
//! over its epochs.
//!
//! **Normalised time.** Every wall time the end-to-end metrics are made
//! of is divided by what the reference kernel ([`crate::refkernel`]) cost
//! next to it: the kernel is read once per [`REF_EVERY_NS`] of op time
//! and in a burst on either side of a set-up. Times are reported at the
//! kernel's nominal cost, so on the sizing box in its calm state they are
//! wall times; raw wall times are printed beside them.

use crate::refkernel::{self, NOMINAL_US};
use crate::stats::{median, percentile, sorted, Summary};
use axml_core::prelude::*;
use axml_net::socket::WireStats;
use axml_xml::stats::CopyStats;
use std::time::{Duration, Instant};

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// `CostModel::from_system` (axml-core).
    CostModel,
    /// `Optimizer::optimize_with` (axml-core).
    Optimize,
    /// `AxmlSystem::eval` (axml-core engine).
    Eval,
    /// `AxmlSystem::feed` (axml-core continuous engine).
    Feed,
    /// `install_doc` + `activate_document` (axml-core).
    Activate,
    /// `AxmlSystem::unsubscribe` (axml-core).
    Unsubscribe,
    /// Layer probe: the op's own query replayed through axml-query's
    /// public evaluator, outside the op's latency.
    QueryProbe,
}

/// One benchmark-side span: recorded around a call into a layer, kept
/// in memory until the run ends. Spans of one op share `op`; the span
/// that caused every one of them is that op.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The op (request) this span belongs to.
    pub op: u32,
    /// Which boundary.
    pub kind: SpanKind,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Work units covered (subscriptions for activate/unsubscribe,
    /// input nodes for a query probe, else 1).
    pub units: u32,
}

/// Span recorder. Off in end-to-end runs: [`Tracer::call`] is then a
/// plain call with no clock reads.
pub struct Tracer {
    on: bool,
    origin: Instant,
    op: u32,
    /// Recorded spans, in order.
    pub spans: Vec<Span>,
    /// Tree bytes copied/shared by layer probes (not by the ops).
    pub probe_copy: CopyStats,
}

impl Tracer {
    /// A tracer; records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            probe_copy: CopyStats::default(),
        }
    }

    /// Whether spans (and layer probes) are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f`, recording a span of `kind` around it when tracing.
    pub fn call<T>(&mut self, kind: SpanKind, units: u32, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            op: self.op,
            kind,
            start_ns,
            end_ns,
            units,
        });
        out
    }

    /// Run a layer probe: a replay of the op's own inputs through one
    /// layer's public function. Probes sit outside the op's latency, and
    /// outside its allocation and copy accounting: allocation counting
    /// pauses, and the tree bytes the probe copies are set aside in
    /// [`Tracer::probe_copy`] for the caller to subtract.
    pub fn probe<T>(&mut self, units: u32, f: impl FnOnce() -> T) -> T {
        let counting = crate::alloc::set_counting(false);
        let before = CopyStats::snapshot();
        let out = self.call(SpanKind::QueryProbe, units, f);
        let d = CopyStats::snapshot().delta_since(&before);
        self.probe_copy.bytes_copied += d.bytes_copied;
        self.probe_copy.bytes_shared += d.bytes_shared;
        self.probe_copy.cow_materializations += d.cow_materializations;
        crate::alloc::set_counting(counting);
        out
    }

    /// Total `(ns, units)` over the spans of one kind.
    pub fn total(&self, kind: SpanKind) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .fold((0, 0), |(ns, u), s| {
                (ns + (s.end_ns - s.start_ns), u + s.units as u64)
            })
    }
}

/// The non-default mode a twin probe reruns a slice under.
#[derive(Debug, Clone, Copy, Default)]
pub struct Variant {
    /// Event scheduler, if not the builder's default.
    pub scheduler: Option<SchedulerKind>,
    /// Evaluation driver, if not the builder's default.
    pub driver: Option<DriverKind>,
    /// Subscription matcher mode, if not the builder's default.
    pub matcher: Option<MatcherMode>,
}

impl Variant {
    /// Apply to a freshly built system.
    pub fn apply(self, sys: &mut AxmlSystem) {
        if let Some(k) = self.scheduler {
            sys.set_scheduler(k);
        }
        if let Some(d) = self.driver {
            sys.set_driver(d);
        }
        if let Some(m) = self.matcher {
            sys.set_matcher_mode(m);
        }
    }
}

/// What one op reports back to the loop.
#[derive(Debug, Clone, Copy)]
pub struct OpOutcome {
    /// Wall latency of the op's calls into the system (verification and
    /// layer probes excluded).
    pub latency: Duration,
    /// Whether the op returned `Ok` *and* its result matched the
    /// expected fingerprint.
    pub ok: bool,
}

/// How large a run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Divisor on every workload's epoch length, warm-up and (for
    /// `sub_churn`) subscription population; 1 = full size.
    pub divisor: usize,
}

impl Size {
    /// The documented sizes.
    pub const FULL: Size = Size { divisor: 1 };
    /// 1/50 of the op counts, for CI.
    pub const SMOKE: Size = Size { divisor: 50 };

    /// Scale a full-size count (ops, warm-up ops, a population), never
    /// below `floor`.
    pub fn scale(&self, full: usize, floor: usize) -> usize {
        (full / self.divisor).max(floor)
    }
}

/// One benchmark workload. `Plan` is everything made from the seed on
/// the benchmark's side — input documents as XML text, the op order,
/// the expected result fingerprints; the system under test only ever
/// sees what [`Workload::setup`] and [`Workload::op`] hand it.
pub trait Workload: Sized {
    /// The workload's name in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Seed-derived inputs and expectations.
    type Plan;

    /// Generate inputs and expected results from the seed. Not timed.
    fn plan(seed: u64, size: Size) -> Result<Self::Plan, String>;

    /// Ops in one epoch.
    fn epoch_len(plan: &Self::Plan) -> usize;

    /// Build the network, parse and install documents, launch peers,
    /// activate initial subscriptions, run the warm-up ops and reset the
    /// counters, calling `clock.tick()` between steps. Timed as `setup_s`.
    fn setup(plan: &Self::Plan, variant: Variant, clock: &mut SetupClock) -> Result<Self, String>;

    /// Run op `i` of the epoch and check its result.
    fn op(&mut self, plan: &Self::Plan, i: usize, tr: &mut Tracer) -> OpOutcome;

    /// The system under test (for its public counters).
    fn sys(&self) -> &AxmlSystem;

    /// The system under test, to attach a trace sink once set-up is done.
    fn sys_mut(&mut self) -> &mut AxmlSystem;

    /// Client-side ledger of real wire traffic (socket workloads).
    fn wire(&self) -> WireStats {
        WireStats::default()
    }

    /// The largest input document as XML text, for the xml/types probes.
    fn probe_doc(plan: &Self::Plan) -> &str;

    /// A representative query source, for the parser probe.
    fn probe_query(plan: &Self::Plan) -> &str;

    /// End-of-epoch reconciliation beyond the common ledgers, after
    /// `ops_done` ops of the epoch, then tear down (stop and reap any
    /// process the set-up launched).
    fn finish(self, _plan: &Self::Plan, _ops_done: usize) -> Result<(), String> {
        Ok(())
    }
}

/// Public counters read at the end of an epoch. Every field is a pure
/// function of the seed, so two runs at one seed must agree on all of
/// them — the determinism test compares this struct.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Ops attempted.
    pub ops: u64,
    /// Ops that errored or returned a wrong result.
    pub failed: u64,
    /// `NetStats::total_bytes`.
    pub wire_bytes: u64,
    /// `NetStats::total_messages`.
    pub messages: u64,
    /// `NetStats::total_dropped`.
    pub dropped: u64,
    /// Virtual time the ops advanced the simulated clock by (ms).
    pub virtual_ms: f64,
    /// `EvalMetrics::retries`.
    pub retries: u64,
    /// `EvalMetrics::failovers`.
    pub failovers: u64,
    /// `EvalMetrics::matcher_probes`.
    pub matcher_probes: u64,
    /// `EvalMetrics::matcher_hits`.
    pub matcher_hits: u64,
    /// `EvalMetrics::delta_fresh`.
    pub delta_fresh: u64,
    /// `EvalMetrics::delta_suppressed`.
    pub delta_suppressed: u64,
    /// Definitions (1)–(9) fired.
    pub defs_fired: u64,
    /// `EvalMetrics::service_calls`.
    pub service_calls: u64,
    /// `EvalMetrics::explored`.
    pub explored: u64,
    /// `EvalMetrics::memo_hits`.
    pub memo_hits: u64,
    /// Rewrite-rule applications the optimizer accepted.
    pub rules_accepted: u64,
    /// `SchedStats::peak_pending`.
    pub sched_peak_pending: u64,
    /// `SchedStats::cascades`.
    pub sched_cascades: u64,
    /// `WireStats::frames` summed over endpoints.
    pub wire_frames: u64,
    /// `WireStats::payload_bytes` summed over endpoints.
    pub wire_payload_bytes: u64,
    /// `RunReport::reconciled`, `SchedStats::consistent`,
    /// `matcher_consistent` and the workload's own `finish` all held.
    pub reconciled: bool,
}

/// One finished epoch.
pub struct Epoch {
    /// Wall seconds [`Workload::setup`] took.
    pub setup_s: f64,
    /// Mean reference-kernel reading over the set-up, ns.
    pub setup_ref_ns: f64,
    /// Per-op latency, ns, in op order.
    pub latencies_ns: Vec<u64>,
    /// Reference-kernel readings `(ops done before it, ns)`, in order:
    /// one before the first op, then one per [`REF_EVERY_NS`] of op time.
    pub refs: Vec<(u32, u64)>,
    /// The epoch's counters.
    pub ledger: Ledger,
    /// Spans recorded (empty unless traced).
    pub tracer: Tracer,
    /// Wall seconds `AxmlSystem::run_report` took at the end.
    pub run_report_s: f64,
    /// `(allocations, bytes)` the ops made (traced epochs only).
    pub allocs: (u64, u64),
    /// Tree bytes the ops copied, shared and COW-materialized, layer
    /// probes excluded.
    pub copy: CopyStats,
}

impl Epoch {
    /// Mean op latency in µs, raw wall time.
    pub fn mean_latency_us(&self) -> f64 {
        let total: u64 = self.latencies_ns.iter().sum();
        total as f64 / 1e3 / self.latencies_ns.len().max(1) as f64
    }

    /// Mean reference-kernel reading over the ops, µs. Readings are
    /// spaced evenly in op time, so this weighs the machine's states by
    /// the op time spent in each.
    pub fn mean_ref_us(&self) -> f64 {
        let total: u64 = self.refs.iter().map(|&(_, ns)| ns).sum();
        total as f64 / 1e3 / self.refs.len() as f64
    }

    /// Mean op latency in µs at the reference kernel's nominal cost:
    /// summed op time over summed kernel time.
    pub fn norm_mean_latency_us(&self) -> f64 {
        self.mean_latency_us() * NOMINAL_US / self.mean_ref_us()
    }

    /// Set-up seconds at the reference kernel's nominal cost.
    pub fn norm_setup_s(&self) -> f64 {
        self.setup_s * NOMINAL_US * 1e3 / self.setup_ref_ns
    }

    /// Per-op latency in µs at the reference kernel's nominal cost.
    pub fn norm_latencies_us(&self) -> Vec<f64> {
        normalise_us(&self.latencies_ns, &self.refs)
    }
}

/// Per-op latency in µs at the reference kernel's nominal cost, from raw
/// latencies and the readings `(ops done before it, ns)` taken between
/// them (the first before op 0). The ops between readings `j` and
/// `j + 1` are scaled by the mean of the readings `j - 2 ..= j + 3`: the
/// three on either side.
pub fn normalise_us(latencies_ns: &[u64], refs: &[(u32, u64)]) -> Vec<f64> {
    let mut out = Vec::with_capacity(latencies_ns.len());
    for j in 0..refs.len() {
        let window = &refs[j.saturating_sub(2)..(j + 4).min(refs.len())];
        let ref_us =
            window.iter().map(|&(_, ns)| ns).sum::<u64>() as f64 / 1e3 / window.len() as f64;
        let hi = refs.get(j + 1).map_or(latencies_ns.len(), |r| r.0 as usize);
        for &ns in &latencies_ns[refs[j].0 as usize..hi] {
            out.push(ns as f64 / 1e3 * NOMINAL_US / ref_us);
        }
    }
    out
}

/// Time between two reference-kernel readings, ns.
pub const REF_EVERY_NS: u64 = 5_000_000;
/// Readings in the burst on either side of a set-up.
const REF_BURST: usize = 5;

/// Reference-kernel readings over a set-up: a burst on either side, and
/// one wherever the workload calls [`SetupClock::tick`] between two steps
/// with [`REF_EVERY_NS`] gone since the last.
pub struct SetupClock {
    on: bool,
    started: Instant,
    last: Instant,
    readings: u64,
    kernel_ns: u64,
    /// Kernel time spent by `tick`, which the set-up's wall time holds.
    inside_ns: u64,
}

impl SetupClock {
    fn start() -> Self {
        let mut c = SetupClock::off();
        c.on = true;
        c.burst();
        c.started = Instant::now();
        c
    }

    /// A clock that never reads the kernel, for set-up steps replayed
    /// outside a measured set-up.
    pub fn off() -> Self {
        SetupClock {
            on: false,
            started: Instant::now(),
            last: Instant::now(),
            readings: 0,
            kernel_ns: 0,
            inside_ns: 0,
        }
    }

    fn burst(&mut self) {
        for _ in 0..REF_BURST {
            self.kernel_ns += refkernel::timed();
            self.readings += 1;
        }
        self.last = Instant::now();
    }

    /// Between two set-up steps: read the kernel if it is time to.
    pub fn tick(&mut self) {
        if self.on && self.last.elapsed().as_nanos() as u64 >= REF_EVERY_NS {
            let ns = refkernel::timed();
            self.kernel_ns += ns;
            self.inside_ns += ns;
            self.readings += 1;
            self.last = Instant::now();
        }
    }

    /// `(set-up wall seconds without the kernel's own, mean reading ns)`.
    fn stop(mut self) -> (f64, f64) {
        let wall_ns = self.started.elapsed().as_nanos() as u64;
        self.burst();
        (
            wall_ns.saturating_sub(self.inside_ns) as f64 / 1e9,
            self.kernel_ns as f64 / self.readings as f64,
        )
    }
}

/// Set up a fresh system and run ops `0..n_ops` of the epoch over it.
/// `sink`, if any, is attached after set-up, so it sees the ops only
/// (end-to-end runs attach none).
pub fn run_epoch<W: Workload>(
    plan: &W::Plan,
    variant: Variant,
    n_ops: usize,
    traced: bool,
    sink: Option<Box<dyn TraceSink>>,
) -> Result<Epoch, String> {
    let mut clock = SetupClock::start();
    let mut w = W::setup(plan, variant, &mut clock)?;
    let (setup_s, setup_ref_ns) = clock.stop();
    if let Some(sink) = sink {
        w.sys_mut().set_trace_sink(sink);
    }
    let virtual_start = w.sys().now_ms();

    let mut tracer = Tracer::new(traced);
    let mut latencies_ns = Vec::with_capacity(n_ops);
    let mut failed = 0u64;
    let copy_before = CopyStats::snapshot();
    let allocs_before = crate::alloc::counted();
    crate::alloc::set_counting(traced);
    // The kernel's own allocations are not the ops'.
    let read_ref = || {
        crate::alloc::set_counting(false);
        let ns = refkernel::timed();
        crate::alloc::set_counting(traced);
        ns
    };
    let mut refs = vec![(0u32, read_ref())];
    let mut since_ref = 0u64;
    for i in 0..n_ops {
        tracer.op = i as u32;
        let out = w.op(plan, i, &mut tracer);
        let ns = out.latency.as_nanos() as u64;
        latencies_ns.push(ns);
        failed += u64::from(!out.ok);
        since_ref += ns;
        if since_ref >= REF_EVERY_NS {
            refs.push((i as u32 + 1, read_ref()));
            since_ref = 0;
        }
    }
    crate::alloc::set_counting(false);
    let allocs_after = crate::alloc::counted();
    // `delta_since` is a saturating field-wise subtraction: ops minus probes.
    let copy = CopyStats::snapshot()
        .delta_since(&copy_before)
        .delta_since(&tracer.probe_copy);

    let sys = w.sys();
    let t_report = Instant::now();
    let report = sys.run_report(W::NAME);
    let run_report_s = t_report.elapsed().as_secs_f64();
    let m = sys.metrics();
    let sched = sys.net().sched_stats();
    let wire = w.wire();
    let mut ledger = Ledger {
        ops: n_ops as u64,
        failed,
        wire_bytes: sys.stats().total_bytes(),
        messages: sys.stats().total_messages(),
        dropped: sys.stats().total_dropped(),
        virtual_ms: sys.now_ms() - virtual_start,
        retries: m.retries,
        failovers: m.failovers,
        matcher_probes: m.matcher_probes,
        matcher_hits: m.matcher_hits,
        delta_fresh: m.delta_fresh,
        delta_suppressed: m.delta_suppressed,
        defs_fired: m.defs().iter().map(|&(_, n)| n).sum(),
        service_calls: m.service_calls,
        explored: m.explored,
        memo_hits: m.memo_hits,
        rules_accepted: m.rules().map(|(_, r)| r.accepted).sum(),
        sched_peak_pending: sched.peak_pending,
        sched_cascades: sched.cascades,
        wire_frames: wire.frames,
        wire_payload_bytes: wire.payload_bytes,
        reconciled: report.reconciled && sched.consistent() && m.matcher_consistent(),
    };
    if let Err(e) = w.finish(plan, n_ops) {
        eprintln!("{}: end-of-epoch reconciliation failed: {e}", W::NAME);
        ledger.reconciled = false;
    }
    Ok(Epoch {
        setup_s,
        setup_ref_ns,
        latencies_ns,
        refs,
        ledger,
        tracer,
        run_report_s,
        allocs: (
            allocs_after.0 - allocs_before.0,
            allocs_after.1 - allocs_before.1,
        ),
        copy,
    })
}

/// The end-to-end result of one untraced run. Every time is at the
/// reference kernel's nominal cost unless it says raw.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Epochs completed.
    pub epochs: usize,
    /// Set-up seconds: count, median and quartiles over the epochs.
    pub setup_s: Summary,
    /// Ops attempted over all epochs.
    pub attempted: u64,
    /// Ops that errored or returned a wrong result.
    pub failed: u64,
    /// Ops of one epoch ÷ their summed latency, median over the epochs.
    pub ops_per_s: f64,
    /// Per-op latency in µs (each op's median over the epochs): count,
    /// median and quartiles over the ops of one epoch.
    pub latency_us: Summary,
    /// 95th percentile of the same per-op latencies, µs.
    pub latency_p95_us: f64,
    /// `NetStats::total_bytes` ÷ ops (exact at a given seed).
    pub wire_bytes_per_op: f64,
    /// Virtual ms the simulated clock advanced ÷ ops (exact at a seed).
    pub virtual_ms_per_op: f64,
    /// `VmHWM` of this process plus its `peerd` children after the
    /// first epoch, MiB.
    pub peak_rss_mb: f64,
    /// No op failed and every ledger reconciled in every epoch.
    pub correct: bool,
    /// The first epoch's counters (every epoch's are identical).
    pub ledger: Ledger,
    /// Raw wall readings, for the reader: how the machine moved under
    /// the run.
    pub raw: Raw,
}

/// Raw wall times of one run, before normalisation.
#[derive(Debug, Clone)]
pub struct Raw {
    /// Set-up wall seconds: median and quartiles over the epochs.
    pub setup_s: Summary,
    /// Mean op wall latency of each epoch, µs, in run order.
    pub epoch_mean_us: Vec<f64>,
    /// Mean reference-kernel reading of each epoch, µs, in run order.
    pub epoch_ref_us: Vec<f64>,
    /// Reference-kernel readings over the whole run, µs.
    pub ref_us: Summary,
}

/// Run whole epochs, set-up and ops, until `seconds` are used up; always
/// at least one.
///
/// Every epoch replays the same ops, so op `i` is timed once per epoch;
/// its latency is the median over the epochs of its normalised
/// latencies, and the percentiles are taken over the ops: the tail they
/// show is the op mix's, not the machine's. Throughput is the median
/// over the epochs of ops ÷ normalised busy time.
pub fn run_end_to_end<W: Workload>(plan: &W::Plan, seconds: f64) -> Result<EndToEnd, String> {
    let n_ops = W::epoch_len(plan);
    let mut epochs: Vec<Epoch> = Vec::new();
    let started = Instant::now();
    let mut peak_rss_mb = 0.0;
    while epochs.is_empty() || started.elapsed().as_secs_f64() < seconds {
        epochs.push(run_epoch::<W>(
            plan,
            Variant::default(),
            n_ops,
            false,
            None,
        )?);
        if epochs.len() == 1 {
            // Read after the first epoch: later epochs only add what the
            // allocator fails to reuse between fresh systems, which grows
            // with the number of epochs a run happens to fit.
            peak_rss_mb = crate::proc::peak_rss_mb();
        }
    }
    let first = epochs[0].ledger.clone();
    // Every epoch replays one stream on a fresh system: any difference
    // between their ledgers is nondeterminism in the system under test.
    let repeatable = epochs.iter().all(|e| e.ledger == first);
    if !repeatable {
        eprintln!("{}: epoch ledgers differ within one run", W::NAME);
    }
    let attempted: u64 = epochs.iter().map(|e| e.ledger.ops).sum();
    let failed: u64 = epochs.iter().map(|e| e.ledger.failed).sum();
    let by_epoch: Vec<Vec<f64>> = epochs.iter().map(Epoch::norm_latencies_us).collect();
    let per_op_us: Vec<f64> = (0..n_ops)
        .map(|i| median(&by_epoch.iter().map(|e| e[i]).collect::<Vec<_>>()))
        .collect();
    let ordered = sorted(&per_op_us);
    let over_epochs = |f: fn(&Epoch) -> f64| epochs.iter().map(f).collect::<Vec<f64>>();
    let all_refs: Vec<f64> = epochs
        .iter()
        .flat_map(|e| e.refs.iter().map(|&(_, ns)| ns as f64 / 1e3))
        .collect();
    Ok(EndToEnd {
        epochs: epochs.len(),
        setup_s: Summary::of(&over_epochs(Epoch::norm_setup_s)),
        attempted,
        failed,
        ops_per_s: 1e6 / median(&over_epochs(Epoch::norm_mean_latency_us)),
        latency_us: Summary::of(&ordered),
        latency_p95_us: percentile(&ordered, 95.0),
        wire_bytes_per_op: first.wire_bytes as f64 / first.ops as f64,
        virtual_ms_per_op: first.virtual_ms / first.ops as f64,
        peak_rss_mb,
        correct: failed == 0 && repeatable && epochs.iter().all(|e| e.ledger.reconciled),
        ledger: first,
        raw: Raw {
            setup_s: Summary::of(&over_epochs(|e| e.setup_s)),
            epoch_mean_us: over_epochs(Epoch::mean_latency_us),
            epoch_ref_us: over_epochs(Epoch::mean_ref_us),
            ref_us: Summary::of(&all_refs),
        },
    })
}

/// Order-insensitive fingerprint of a result forest: the sorted
/// `canonical_hash` of every tree, FNV-folded. Two forests that are
/// equal as unordered multisets of unordered trees hash alike.
pub fn forest_fingerprint(forest: &[axml_xml::tree::Tree]) -> u64 {
    let mut hashes: Vec<u64> = forest
        .iter()
        .map(|t| axml_xml::equiv::canonical_hash(t, t.root()))
        .collect();
    hashes.sort_unstable();
    let mut bytes = Vec::with_capacity(hashes.len() * 8);
    for h in hashes {
        bytes.extend_from_slice(&h.to_le_bytes());
    }
    axml_net::frame::fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_xml::tree::Tree;

    #[test]
    fn fingerprint_ignores_order_but_not_content() {
        let a = Tree::parse("<a><x/><y/></a>").unwrap();
        let a2 = Tree::parse("<a><y/><x/></a>").unwrap();
        let b = Tree::parse("<b/>").unwrap();
        let c = Tree::parse("<c/>").unwrap();
        assert_eq!(
            forest_fingerprint(&[a.clone(), b.clone()]),
            forest_fingerprint(&[b.clone(), a2])
        );
        assert_ne!(
            forest_fingerprint(&[a.clone(), b]),
            forest_fingerprint(&[a, c])
        );
        assert_ne!(
            forest_fingerprint(&[]),
            forest_fingerprint(&[Tree::new("a")])
        );
    }

    #[test]
    fn tracer_records_only_when_on() {
        let mut off = Tracer::new(false);
        assert_eq!(off.call(SpanKind::Eval, 1, || 7), 7);
        assert!(off.spans.is_empty());
        let mut on = Tracer::new(true);
        on.call(SpanKind::Eval, 1, || ());
        on.call(SpanKind::Activate, 10, || ());
        assert_eq!(on.spans.len(), 2);
        assert_eq!(on.total(SpanKind::Activate).1, 10);
        assert!(on.spans[0].end_ns >= on.spans[0].start_ns);
    }

    #[test]
    fn normalising_divides_each_op_by_the_readings_around_it() {
        let nominal_ns = (NOMINAL_US * 1e3) as u64;
        // A machine at half speed throughout: every latency halves.
        let lat = vec![2_000u64; 8];
        let slow = [(0, 2 * nominal_ns), (4, 2 * nominal_ns)];
        assert_eq!(normalise_us(&lat, &slow), vec![1.0; 8]);
        // One reading per op and a flip in the middle: far from the flip
        // each side is scaled by its own state.
        let lat: Vec<u64> = (0..12).map(|i| if i < 6 { 1_000 } else { 3_000 }).collect();
        let refs: Vec<(u32, u64)> = (0..12)
            .map(|i| (i, if i < 6 { nominal_ns } else { 3 * nominal_ns }))
            .collect();
        let norm = normalise_us(&lat, &refs);
        assert_eq!(norm.len(), 12);
        assert_eq!((norm[0], norm[11]), (1.0, 1.0));
        // With no ops there is nothing to scale.
        assert!(normalise_us(&[], &[(0, nominal_ns)]).is_empty());
    }

    #[test]
    fn smoke_size_divides_but_keeps_a_floor() {
        assert_eq!(Size::FULL.scale(1000, 10), 1000);
        assert_eq!(Size::SMOKE.scale(1000, 10), 20);
        assert_eq!(Size::SMOKE.scale(100, 10), 10);
    }
}
