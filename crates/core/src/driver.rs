//! Evaluation drivers: the parallel peer-mailbox driver, beside the
//! sequential reference loop in [`crate::engine`]'s pump. Everything
//! speculative — precompute, request collapsing, their counters — lives
//! in this module.
//!
//! The simulator's semantics are defined by the **sequential** driver:
//! drain ready tasks in FIFO order, deliver the earliest batch of
//! in-flight messages mailbox-by-mailbox, repeat until quiescent. The
//! **parallel** driver keeps those semantics *bit-for-bit* — same
//! result forests, same `NetStats`, same `RunReport`, same PRNG stream
//! for the same seed — by splitting each scheduling step into two
//! phases:
//!
//! 1. **Speculative precompute** (workers): the heavy, *pure* pieces of
//!    a wave — query evaluations against a peer's documents — run on a
//!    scoped worker pool over an immutable borrow of Σ. Each job
//!    snapshots the owning peer's [`PeerState::stamp`], which every
//!    mutable door of Σ|p draws afresh.
//! 2. **Ordered commit** (coordinator): the wave is then replayed in
//!    exactly the sequential order through exactly the sequential code
//!    path. Right before committing an entry the driver stages its
//!    precomputed value in the session's `Speculation` hook — the
//!    only channel between this module and the engine — and the
//!    committing task takes it at the point where it would otherwise
//!    compute inline. A precomputed result is used only if its stamp
//!    still matches — i.e. no earlier commit in the wave mutated that
//!    peer — otherwise it is discarded and recomputed inline. Everything with
//!    global ordering (network sends, call ids, metrics, trace events,
//!    slot fills, the tie-breaking PRNG) happens only here, on one
//!    thread, which is what makes equivalence structural rather than
//!    hoped-for.
//!
//! A *wave* is one drain of the ready queue (spawned tasks form the
//! next wave — provably the same global FIFO order) or one drain of
//! all peer mailboxes after an arrival batch (deliveries never refill
//! mailboxes, so batching them is order-equivalent too).
//!
//! On top of the pool the parallel driver adds deterministic **request
//! collapsing**: identical service invocations (same provider, service
//! and parameter forests, same provider stamp) within a session are
//! evaluated once and the result reused — in-wave via job
//! deduplication, across waves via a session-scoped cache. Because
//! service bodies are pure functions of the provider's documents and
//! the parameters, and the stamp guard invalidates on any mutation,
//! collapsed calls return bit-identical forests. The sequential driver
//! never collapses: it stays the plain reference.
//!
//! Per-worker counters are accumulated privately and merged into
//! [`ParallelStats`] at the scope's join barrier (the same shape
//! [`axml_obs::EvalMetrics::merge`] provides for metric accumulators),
//! so `EvalMetrics`⇄`NetStats` reconciliation is untouched: metrics
//! are only ever written by the committing coordinator.

use crate::engine::{Cont, Delivery, EvalSession, Intent, Runnable};
use crate::error::{CoreError, CoreResult};
use crate::message::write_forest;
use crate::peer::PeerState;
use crate::system::AxmlSystem;
use axml_net::bytes::PutBytes;
use axml_query::Query;
use axml_xml::ids::{PeerId, ServiceName};
use axml_xml::tree::Tree;
use std::collections::HashMap;

/// Which driver [`AxmlSystem`] uses to run evaluation sessions.
///
/// Select it with [`crate::builder::SystemBuilder::driver`] (or
/// [`AxmlSystem::set_driver`]). Both drivers produce bit-identical
/// results, statistics and reports for the same seed; `Parallel` also
/// precomputes pure work on a worker pool and collapses identical
/// service calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriverKind {
    /// The single-threaded reference driver.
    #[default]
    Sequential,
    /// The wave-based parallel driver.
    Parallel {
        /// Worker threads for the precompute pool. `0` means "use
        /// [`std::thread::available_parallelism`]". With one thread the
        /// pool is bypassed but request collapsing stays active.
        threads: usize,
    },
}

/// Cumulative counters of the parallel driver (not part of
/// [`axml_obs::RunReport`] — wall-clock strategy must not perturb the
/// simulated-semantics report, which stays identical across drivers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Commit waves driven (task waves + delivery waves).
    pub waves: u64,
    /// Precompute jobs executed by worker threads.
    pub jobs: u64,
    /// Precomputed results whose stamp still matched at commit.
    pub precomp_used: u64,
    /// Precomputed results discarded because an earlier commit in the
    /// wave mutated the owning peer (recomputed inline).
    pub invalidated: u64,
    /// In-wave duplicate service jobs collapsed onto one evaluation.
    pub dedup_hits: u64,
    /// Cross-wave service-result cache hits (request collapsing).
    pub cache_hits: u64,
}

impl ParallelStats {
    /// Merge a per-worker (or per-wave) accumulator — the join-barrier
    /// primitive: counters are additive, so merge order cannot matter.
    pub fn merge(&mut self, other: &ParallelStats) {
        self.waves += other.waves;
        self.jobs += other.jobs;
        self.precomp_used += other.precomp_used;
        self.invalidated += other.invalidated;
        self.dedup_hits += other.dedup_hits;
        self.cache_hits += other.cache_hits;
    }
}

/// A pure precompute job extracted from one wave entry. Jobs only ever
/// *read* Σ; everything they need beyond Σ is borrowed from the wave
/// itself, so results are functions of (inputs, peer state @ stamp).
enum Job<'a> {
    /// [`Cont::ApplyFinish`]: run the query over the gathered forests.
    Apply {
        peer: PeerId,
        query: &'a Query,
        input: &'a [Vec<Tree>],
    },
    /// [`Intent::Invoke`]: run the provider's service body.
    Service {
        prov: PeerId,
        service: &'a ServiceName,
        params: &'a [Vec<Tree>],
    },
}

impl<'a> Job<'a> {
    /// The precomputable part of a ready task, if any.
    fn for_task(t: &'a Runnable) -> Option<Job<'a>> {
        let Runnable::Resume { peer, cont, input } = t else {
            return None;
        };
        match cont {
            Cont::ApplyFinish { query, skip, .. } => Some(Job::Apply {
                peer: *peer,
                query,
                input: &input[*skip..],
            }),
            _ => None,
        }
    }

    /// The precomputable part of a mailbox delivery, if any.
    fn for_delivery(d: &'a Delivery) -> Option<Job<'a>> {
        match &d.intent {
            Intent::Invoke { service, .. } => Some(Job::Service {
                prov: d.to,
                service,
                params: &d.forests,
            }),
            _ => None,
        }
    }

    /// Dedup key for in-wave request collapsing (service jobs only —
    /// collapsing `Apply` would buy nothing, its inputs are distinct by
    /// construction).
    fn collapse_key(&self) -> Option<(PeerId, &'a ServiceName, Vec<u8>)> {
        match self {
            Job::Service {
                prov,
                service,
                params,
            } => Some((*prov, service, params_key(params))),
            Job::Apply { .. } => None,
        }
    }
}

/// Canonical cache key for a parameter-forest list: each forest as the
/// wire would carry it, length-prefixed.
fn params_key(params: &[Vec<Tree>]) -> Vec<u8> {
    let mut key = Vec::new();
    for p in params {
        let at = key.len();
        key.put_u32(0);
        write_forest(p, &mut key);
        key.patch_len(at, key.len() - at - 4);
    }
    key
}

/// A speculative result of either job kind — a forest, or why there is
/// none — tagged with the peer and the stamp it was computed against.
/// The committing coordinator uses it only if the stamp still matches.
#[derive(Clone)]
struct Precomp {
    peer: PeerId,
    at: (u64, u64),
    result: CoreResult<Vec<Tree>>,
}

/// Run one job against an immutable Σ. This mirrors — statement for
/// statement — what the commit path would compute inline, so a valid
/// (stamp-matching) precomp is substitutable without observable
/// difference.
fn run_job(peers: &[PeerState], job: &Job<'_>) -> Precomp {
    let (peer, result) = match job {
        Job::Apply { peer, query, input } => (
            *peer,
            query
                .eval_with_docs(input, &peers[peer.index()])
                .map_err(CoreError::from),
        ),
        Job::Service {
            prov,
            service,
            params,
        } => (*prov, run_service(peers, *prov, service, params)),
    };
    Precomp {
        peer,
        at: peers[peer.index()].stamp(),
        result,
    }
}

/// §2.2 step 2: apply the provider's implementation query to the
/// parameter forests.
fn run_service(
    peers: &[PeerState],
    prov: PeerId,
    service: &ServiceName,
    params: &[Vec<Tree>],
) -> CoreResult<Vec<Tree>> {
    let state = &peers[prov.index()];
    let svc = state.service(service, prov)?;
    if svc.arity() != params.len() {
        return Err(CoreError::Query(axml_query::QueryError::ArityMismatch {
            expected: svc.arity(),
            got: params.len(),
        }));
    }
    Ok(svc.query.eval_with_docs(params, state)?)
}

/// Statistics of one precompute phase, returned to the coordinator.
#[derive(Default)]
struct WaveStats {
    jobs: u64,
    dedup_hits: u64,
}

/// Speculatively evaluate a wave's jobs on up to `threads` workers.
///
/// `jobs` pairs each job with its wave index; the result vector has one
/// entry per wave slot (`None` where nothing was precomputable).
/// Identical service jobs are collapsed onto a single evaluation before
/// the pool is spawned; duplicates receive clones of the
/// representative's result. Per-worker outputs are merged at the scope
/// join barrier, preserving wave-index association regardless of which
/// worker ran what.
fn precompute(
    peers: &[PeerState],
    jobs: Vec<(usize, Job<'_>)>,
    slots: usize,
    threads: usize,
) -> (Vec<Option<Precomp>>, WaveStats) {
    let mut out: Vec<Option<Precomp>> = std::iter::repeat_with(|| None).take(slots).collect();
    let mut stats = WaveStats::default();
    if jobs.is_empty() {
        return (out, stats);
    }
    // In-wave request collapsing: duplicates point at a representative.
    let mut unique: Vec<(usize, &Job<'_>)> = Vec::new();
    let mut dup_of: Vec<(usize, usize)> = Vec::new(); // (wave ix, unique ix)
    {
        let mut seen: HashMap<(PeerId, &ServiceName, Vec<u8>), usize> = HashMap::new();
        for (ix, job) in &jobs {
            match job.collapse_key() {
                Some(key) => match seen.get(&key) {
                    Some(&u) => {
                        dup_of.push((*ix, u));
                        stats.dedup_hits += 1;
                    }
                    None => {
                        seen.insert(key, unique.len());
                        unique.push((*ix, job));
                    }
                },
                None => unique.push((*ix, job)),
            }
        }
    }
    stats.jobs = unique.len() as u64;
    // One unique job (or a single-threaded pool) isn't worth a spawn:
    // the commit path computes it inline — and, for service calls, still
    // feeds the session cache, so collapsing keeps working either way.
    if unique.len() < 2 || threads <= 1 {
        // Nothing ran speculatively, so nothing was collapsed here
        // either — the session cache will pick the duplicates up at
        // commit and count them as cache hits instead.
        return (out, WaveStats::default());
    }
    let buckets: Vec<Vec<(usize, &Job<'_>)>> = {
        let n = threads.min(unique.len());
        let mut b: Vec<Vec<(usize, &Job<'_>)>> = (0..n).map(|_| Vec::new()).collect();
        for (i, ju) in unique.iter().enumerate() {
            b[i % n].push(*ju);
        }
        b
    };
    let computed: Vec<Vec<(usize, Precomp)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    bucket
                        .into_iter()
                        .map(|(ix, job)| (ix, run_job(peers, job)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        // Join barrier: merge per-worker outputs back into wave order.
        handles
            .into_iter()
            .map(|h| h.join().expect("precompute worker must not panic"))
            .collect()
    });
    for worker_out in computed {
        for (ix, p) in worker_out {
            out[ix] = Some(p);
        }
    }
    // Duplicates share the representative's result.
    let rep_ix: Vec<usize> = unique.iter().map(|(ix, _)| *ix).collect();
    for (ix, u) in dup_of {
        out[ix] = out[rep_ix[u]].clone();
    }
    (out, stats)
}

/// Provider, service and [`params_key`]: what makes two calls the same.
type CallKey = (PeerId, ServiceName, Vec<u8>);

/// The parallel driver's session-side state, and the one hook through
/// which a committing task receives what the workers precomputed for
/// it: the driver stages a wave entry's [`Precomp`] right before
/// committing the entry, and the two `AxmlSystem` accessors below
/// take it. Inert under the sequential driver — nothing is ever staged
/// and the cache stays off, so every accessor computes inline.
pub(crate) struct Speculation {
    /// Whether this session collapses identical service calls (parallel
    /// driver only — the sequential reference never caches).
    collapse: bool,
    /// The precomputed value of the wave entry being committed.
    staged: Option<Precomp>,
    /// Session-scoped service-result cache, `call → (stamp, results)`:
    /// an entry is reused only while the provider's stamp is unchanged,
    /// so a hit is bit-identical to recomputing.
    svc_cache: HashMap<CallKey, ((u64, u64), Vec<Tree>)>,
}

impl Speculation {
    pub(crate) fn new(driver: DriverKind) -> Self {
        Speculation {
            collapse: matches!(driver, DriverKind::Parallel { .. }),
            staged: None,
            svc_cache: HashMap::new(),
        }
    }
}

impl AxmlSystem {
    /// Select the evaluation driver. The default is
    /// [`DriverKind::Sequential`], the reference implementation; the
    /// parallel driver produces bit-identical results and reports.
    pub fn set_driver(&mut self, driver: DriverKind) {
        self.driver = driver;
    }

    /// The currently selected evaluation driver.
    pub fn driver(&self) -> DriverKind {
        self.driver
    }

    /// Cumulative parallel-driver counters (all zero while the
    /// sequential driver is selected).
    pub fn parallel_stats(&self) -> ParallelStats {
        self.par_stats
    }

    /// The wave-based parallel loop (see the module docs for the
    /// precompute/commit split and the equivalence argument). Spawned
    /// tasks land on `s.ready` *behind* the wave being committed, so
    /// the global task order is exactly the sequential FIFO; deliveries
    /// never push into mailboxes, so draining all mailboxes up front is
    /// order-equivalent to the sequential per-peer drain.
    pub(crate) fn run_session_parallel(
        &mut self,
        s: &mut EvalSession,
        threads: usize,
    ) -> CoreResult<()> {
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        loop {
            while !s.ready.is_empty() {
                let wave: Vec<Runnable> = s.ready.drain(..).collect();
                let jobs = wave.iter().map(Job::for_task);
                let pre = self.precompute_wave(jobs, threads);
                for (task, p) in wave.into_iter().zip(pre) {
                    s.spec.staged = p;
                    self.run_task(s, task)?;
                }
            }
            if !self.next_arrival_batch(s) {
                break;
            }
            let mut wave: Vec<Delivery> = Vec::new();
            for (_, mb) in std::mem::take(&mut s.mailboxes) {
                wave.extend(mb);
            }
            let jobs = wave.iter().map(Job::for_delivery);
            let pre = self.precompute_wave(jobs, threads);
            for (d, p) in wave.into_iter().zip(pre) {
                s.spec.staged = p;
                self.deliver(s, d)?;
            }
        }
        self.check_quiescent(s)
    }

    /// Precompute one wave (`jobs[i]` belongs to wave entry `i`) and
    /// book its statistics.
    fn precompute_wave<'a>(
        &mut self,
        jobs: impl ExactSizeIterator<Item = Option<Job<'a>>>,
        threads: usize,
    ) -> Vec<Option<Precomp>> {
        let slots = jobs.len();
        let jobs = jobs
            .enumerate()
            .filter_map(|(i, j)| j.map(|j| (i, j)))
            .collect();
        let (pre, wave) = precompute(&self.peers, jobs, slots, threads);
        self.par_stats.waves += 1;
        self.par_stats.jobs += wave.jobs;
        self.par_stats.dedup_hits += wave.dedup_hits;
        pre
    }

    /// The staged precomputed result if it is valid (same peer, same
    /// stamp), or `None` to compute inline; stale ones are counted.
    pub(crate) fn take_precomp(
        &mut self,
        s: &mut EvalSession,
        peer: PeerId,
    ) -> Option<CoreResult<Vec<Tree>>> {
        let staged = s.spec.staged.take()?;
        if staged.peer == peer && staged.at == self.peers[peer.index()].stamp() {
            self.par_stats.precomp_used += 1;
            Some(staged.result)
        } else {
            self.par_stats.invalidated += 1;
            None
        }
    }

    /// The provider-side evaluation of one service call: a valid result
    /// precomputed by the parallel driver's workers, else — in collapsing
    /// sessions — the stamp-guarded session cache, else inline. All three
    /// are bit-identical: service bodies are pure in (parameters,
    /// provider state @ stamp).
    pub(crate) fn service_results(
        &mut self,
        s: &mut EvalSession,
        prov: PeerId,
        service: &ServiceName,
        params: &[Vec<Tree>],
    ) -> CoreResult<Vec<Tree>> {
        let at = self.peers[prov.index()].stamp();
        let collapse = s.spec.collapse;
        let key = collapse.then(|| (prov, service.clone(), params_key(params)));
        let results = match self.take_precomp(s, prov) {
            Some(result) => result?,
            None => {
                let hit = key.as_ref().and_then(|k| s.spec.svc_cache.get(k));
                if let Some((_, results)) = hit.filter(|(cached_at, _)| *cached_at == at) {
                    self.par_stats.cache_hits += 1;
                    return Ok(results.clone());
                }
                run_service(&self.peers, prov, service, params)?
            }
        };
        // Feed the session cache so later identical calls collapse onto
        // this evaluation.
        if let Some(k) = key {
            s.spec.svc_cache.insert(k, (at, results.clone()));
        }
        Ok(results)
    }
}
