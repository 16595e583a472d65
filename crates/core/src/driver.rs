//! Evaluation drivers: which worker pool, if any, runs beside the one
//! session loop in [`crate::engine`]'s pump.
//!
//! The simulator's semantics are defined by that loop: drain ready
//! tasks in FIFO order, deliver the earliest batch of in-flight messages
//! mailbox-by-mailbox, repeat until quiescent. The **parallel** driver
//! keeps those semantics *bit-for-bit* — same result forests, same
//! `NetStats`, same `RunReport`, same PRNG stream for the same seed — by
//! splitting each ready wave into two phases:
//!
//! 1. **Speculative precompute** (workers): the wave's query
//!    evaluations (`Cont::ApplyFinish`, a query over gathered forests
//!    and a peer's documents) run on a scoped worker pool over an
//!    immutable borrow of Σ. Each job snapshots the owning peer's
//!    [`PeerState::stamp`], which every mutable door of Σ|p draws afresh.
//! 2. **Ordered commit** (coordinator): the wave then runs in FIFO order
//!    through exactly the code the sequential driver runs. Right before
//!    committing an entry the loop stages its precomputed value on the
//!    session, and the committing task takes it at the point where it
//!    would otherwise compute inline. A precomputed result is used only
//!    if its stamp still matches — i.e. no earlier commit in the wave
//!    mutated that peer — otherwise it is discarded and recomputed
//!    inline. Everything with global ordering (network sends, call ids,
//!    metrics, trace events, slot fills, the tie-breaking PRNG) happens
//!    only here, on one thread, which is what makes equivalence
//!    structural rather than hoped-for.
//!
//! A *wave* is one drain of the ready queue: spawned tasks form the next
//! wave, which is provably the same global FIFO order. With one thread
//! there is no pool, and `Parallel` runs what `Sequential` runs.
//!
//! Identical service calls are not this module's business: the
//! provider-side evaluation reuses answers through a stamp-guarded memo
//! under every driver (`engine/defs.rs`).
//!
//! Per-worker results are merged at the scope's join barrier, and
//! [`ParallelStats`] is written only by the committing coordinator, so
//! `EvalMetrics`⇄`NetStats` reconciliation is untouched.

use crate::engine::{Cont, EvalSession, Runnable};
use crate::error::{CoreError, CoreResult};
use crate::peer::PeerState;
use crate::system::AxmlSystem;
use axml_query::Query;
use axml_xml::ids::PeerId;
use axml_xml::tree::Tree;

/// Which driver [`AxmlSystem`] uses to run evaluation sessions.
///
/// Select it with [`crate::builder::SystemBuilder::driver`] (or
/// [`AxmlSystem::set_driver`]). Both drivers produce bit-identical
/// results, statistics and reports for the same seed; `Parallel` also
/// precomputes pure work on a worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriverKind {
    /// The single-threaded reference driver.
    #[default]
    Sequential,
    /// The wave-based parallel driver.
    Parallel {
        /// Worker threads for the precompute pool. `0` means "use
        /// [`std::thread::available_parallelism`]". With one thread the
        /// pool is bypassed and the driver runs the sequential code.
        threads: usize,
    },
}

impl DriverKind {
    /// Threads of the precompute pool; 1 means no pool.
    pub(crate) fn threads(self) -> usize {
        match self {
            DriverKind::Sequential => 1,
            DriverKind::Parallel { threads: 0 } => {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            }
            DriverKind::Parallel { threads } => threads,
        }
    }
}

/// Cumulative counters of the parallel driver (not part of
/// [`axml_obs::RunReport`] — wall-clock strategy must not perturb the
/// simulated-semantics report, which stays identical across drivers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Ready waves offered to the pool.
    pub waves: u64,
    /// Precompute jobs executed by worker threads.
    pub jobs: u64,
    /// Precomputed results whose stamp still matched at commit.
    pub precomp_used: u64,
    /// Precomputed results discarded because an earlier commit in the
    /// wave mutated the owning peer (recomputed inline).
    pub invalidated: u64,
}

/// A pure precompute job, the query of one `Cont::ApplyFinish`. It
/// only ever *reads* Σ; its input is borrowed from the wave itself, so
/// its result is a function of (input, peer state @ stamp).
struct Job<'a> {
    peer: PeerId,
    query: &'a Query,
    input: &'a [Vec<Tree>],
}

impl<'a> Job<'a> {
    /// The precomputable part of a ready task, if any.
    fn for_task(t: &'a Runnable) -> Option<Job<'a>> {
        match t {
            Runnable::Resume {
                peer,
                cont: Cont::ApplyFinish { query, skip, .. },
                input,
            } => Some(Job {
                peer: *peer,
                query,
                input: &input[*skip..],
            }),
            _ => None,
        }
    }

    /// Run the job against an immutable Σ — statement for statement what
    /// the commit path would compute inline, so a valid (stamp-matching)
    /// result is substitutable without observable difference.
    fn run(&self, peers: &[PeerState]) -> Precomp {
        let state = &peers[self.peer.index()];
        Precomp {
            peer: self.peer,
            at: state.stamp(),
            result: self
                .query
                .eval_with_docs(self.input, state)
                .map_err(CoreError::from),
        }
    }
}

/// A speculative result — a forest, or why there is none — tagged with
/// the peer and the stamp it was computed against. The committing
/// coordinator uses it only if the stamp still matches.
pub(crate) struct Precomp {
    peer: PeerId,
    at: (u64, u64),
    result: CoreResult<Vec<Tree>>,
}

/// Evaluate `jobs` (each paired with its wave index) on up to `threads`
/// workers; the result has one entry per wave slot, `None` where nothing
/// ran. Per-worker outputs are merged at the scope's join barrier, so
/// the wave-index association holds whichever worker ran what.
fn precompute(
    peers: &[PeerState],
    jobs: Vec<(usize, Job<'_>)>,
    slots: usize,
    threads: usize,
) -> Vec<Option<Precomp>> {
    let mut out: Vec<Option<Precomp>> = std::iter::repeat_with(|| None).take(slots).collect();
    let n = threads.min(jobs.len());
    let mut buckets: Vec<Vec<(usize, Job<'_>)>> = (0..n).map(|_| Vec::new()).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        buckets[i % n].push(job);
    }
    let computed: Vec<Vec<(usize, Precomp)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    bucket
                        .into_iter()
                        .map(|(ix, job)| (ix, job.run(peers)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("precompute worker must not panic"))
            .collect()
    });
    for (ix, p) in computed.into_iter().flatten() {
        out[ix] = Some(p);
    }
    out
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

    /// Precompute the session's ready wave on a pool of `threads`
    /// (entry `i` belongs to the `i`-th ready task). Empty — no pool,
    /// no allocation — with one thread; a wave with fewer than two jobs
    /// is not worth a spawn and is computed inline at commit.
    pub(crate) fn precompute_wave(
        &mut self,
        s: &EvalSession,
        threads: usize,
    ) -> Vec<Option<Precomp>> {
        if threads <= 1 {
            return Vec::new();
        }
        self.par_stats.waves += 1;
        let jobs: Vec<(usize, Job<'_>)> = s
            .ready
            .iter()
            .enumerate()
            .filter_map(|(i, t)| Job::for_task(t).map(|j| (i, j)))
            .collect();
        if jobs.len() < 2 {
            return Vec::new();
        }
        self.par_stats.jobs += jobs.len() as u64;
        precompute(&self.peers, jobs, s.ready.len(), threads)
    }

    /// The staged precomputed result if it is valid (same peer, same
    /// stamp), or `None` to compute inline; stale ones are counted.
    pub(crate) fn take_precomp(
        &mut self,
        s: &mut EvalSession,
        peer: PeerId,
    ) -> Option<CoreResult<Vec<Tree>>> {
        let staged = s.staged.take()?;
        if staged.peer == peer && staged.at == self.peers[peer.index()].stamp() {
            self.par_stats.precomp_used += 1;
            Some(staged.result)
        } else {
            self.par_stats.invalidated += 1;
            None
        }
    }
}
