//! The event scheduler: one binary heap of in-flight deliveries.
//!
//! The discrete-event simulator delivers in `(arrival time, send
//! sequence)` order: the earliest `at` first, and among deliveries due
//! at the same virtual instant the one sent first. [`Scheduler`] is a
//! `BinaryHeap` ordered by that key, with a u64 push/pop/clear ledger
//! ([`SchedStats`]) that the run report reconciles.
//! `crates/net/tests/prop_wheel.rs` holds it to a sorted oracle over
//! random push/pop/clear interleavings, exact ties and far-future jumps.
//!
//! The simulator never pushes an arrival earlier than the last delivery
//! it popped (a send starts at the current clock, and the clock only
//! advances to delivered arrival times); the heap does not rely on it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Selects nothing: there is one scheduler, the heap. Kept so callers
/// that still name a scheduler compile; it goes with ROADMAP item 2(b).
#[derive(Debug, Clone, Copy, Default)]
pub enum SchedulerKind {
    /// The heap.
    #[default]
    Queue,
    /// The heap as well.
    Wheel,
}

/// Saturation-audited (u64) scheduler counters, snapshot by
/// [`Scheduler::stats`]. At quiescence every scheduled event was either
/// delivered or cleared: `scheduled == delivered + cleared + pending`
/// ([`SchedStats::consistent`]) — the reconciliation folded into
/// `RunReport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// Events pushed since construction.
    pub scheduled: u64,
    /// Events popped (delivered).
    pub delivered: u64,
    /// Events discarded by `clear` (aborted sessions).
    pub cleared: u64,
    /// Events pending at snapshot time.
    pub pending: u64,
    /// Always 0: a heap redistributes nothing. Kept for callers that
    /// still read it; it goes with ROADMAP item 2(b).
    pub cascades: u64,
    /// High-water mark of pending events.
    pub peak_pending: u64,
}

impl SchedStats {
    /// Does the ledger balance? (`scheduled == delivered + cleared +
    /// pending`, all u64 — a saturation or accounting bug breaks this.)
    pub fn consistent(&self) -> bool {
        self.scheduled == self.delivered + self.cleared + self.pending
    }
}

/// Min-order heap entry: earliest `at` wins, ties by `seq` ascending
/// (send order) — the delivery order.
struct HeapEntry<T> {
    at: f64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for HeapEntry<T> {}

impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest event wins.
        other
            .at
            .partial_cmp(&self.at)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The in-flight delivery queue, with u64 push/pop/clear accounting.
pub struct Scheduler<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    scheduled: u64,
    delivered: u64,
    cleared: u64,
    peak_pending: u64,
}

impl<T> Default for Scheduler<T> {
    fn default() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            scheduled: 0,
            delivered: 0,
            cleared: 0,
            peak_pending: 0,
        }
    }
}

impl<T> Scheduler<T> {
    /// An empty scheduler. The argument selects nothing (see
    /// [`SchedulerKind`]).
    pub fn new(_kind: SchedulerKind) -> Self {
        Self::default()
    }

    /// Schedule `item` at `(at, seq)`.
    pub fn push(&mut self, at: f64, seq: u64, item: T) {
        self.heap.push(HeapEntry { at, seq, item });
        self.scheduled += 1;
        self.peak_pending = self.peak_pending.max(self.heap.len() as u64);
    }

    /// Deliver the earliest pending event.
    pub fn pop(&mut self) -> Option<(f64, u64, T)> {
        let HeapEntry { at, seq, item } = self.heap.pop()?;
        self.delivered += 1;
        Some((at, seq, item))
    }

    /// Arrival time of the earliest pending event, if any.
    pub fn peek_at(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is the scheduler empty?
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Discard every pending event (counted in
    /// [`SchedStats::cleared`] so the ledger keeps balancing).
    pub fn clear(&mut self) {
        self.cleared += self.heap.len() as u64;
        self.heap.clear();
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            scheduled: self.scheduled,
            delivered: self.delivered,
            cleared: self.cleared,
            pending: self.heap.len() as u64,
            cascades: 0,
            peak_pending: self.peak_pending,
        }
    }
}
