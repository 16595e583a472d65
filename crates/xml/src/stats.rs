//! Copy/share accounting for the zero-copy substrate.
//!
//! The whole point of the zero-copy substrate is that subtrees move by
//! handle ([`crate::tree::Tree::subtree`]), not by copy. This module makes
//! that claim *measurable* in process-wide atomics, three ways:
//!
//! - a materializing copy (a graft, or a copy-on-write materialization of
//!   a shared arena) adds its nodes and heap bytes to the `*_copied`
//!   counters;
//! - a whole-arena handle clone (`Tree::clone`) adds the arena's nodes
//!   and heap bytes to the `*_shared` counters: the deep copy it avoided;
//! - a subtree view ([`crate::tree::Tree::subtree`]) is counted as one
//!   event in `handle_shares`, with no size — a view costs O(1), and
//!   sizing it would walk it.
//!
//! Benchmarks and tests read the counters through [`CopyStats::snapshot`]
//! / [`CopyStats::delta_since`]; the E9 fan-in gate bounds the bytes
//! copied.
//!
//! Counters are monotone and lock-free (`Relaxed` atomics — they are
//! telemetry, not synchronization). `reset` exists for single-threaded
//! measurement harnesses; concurrent tests should use deltas instead.

use std::sync::atomic::{AtomicU64, Ordering};

static BYTES_COPIED: AtomicU64 = AtomicU64::new(0);
static NODES_COPIED: AtomicU64 = AtomicU64::new(0);
static BYTES_SHARED: AtomicU64 = AtomicU64::new(0);
static NODES_SHARED: AtomicU64 = AtomicU64::new(0);
static COW_MATERIALIZATIONS: AtomicU64 = AtomicU64::new(0);
static HANDLE_SHARES: AtomicU64 = AtomicU64::new(0);

/// Record a materializing copy of `nodes` nodes / `bytes` heap bytes.
pub(crate) fn record_copy(nodes: u64, bytes: u64) {
    NODES_COPIED.fetch_add(nodes, Ordering::Relaxed);
    BYTES_COPIED.fetch_add(bytes, Ordering::Relaxed);
}

/// Record an avoided copy: a whole arena of `nodes` nodes / `bytes` heap
/// bytes was shared by a handle clone instead of deep-copied.
pub(crate) fn record_share(nodes: u64, bytes: u64) {
    NODES_SHARED.fetch_add(nodes, Ordering::Relaxed);
    BYTES_SHARED.fetch_add(bytes, Ordering::Relaxed);
}

/// Record one copy-on-write materialization (a shared arena was cloned
/// because a mutation needed exclusive ownership).
pub(crate) fn record_cow() {
    COW_MATERIALIZATIONS.fetch_add(1, Ordering::Relaxed);
}

/// Record one O(1) subtree view ([`crate::tree::Tree::subtree`]). Counted
/// as an event only: the subtree's size is not known in O(1), and the
/// whole arena's bytes are already credited at handle-clone time.
pub(crate) fn record_handle_share() {
    HANDLE_SHARES.fetch_add(1, Ordering::Relaxed);
}

/// A point-in-time snapshot of the process-wide copy/share counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CopyStats {
    /// Heap bytes materialized by copies (grafts and copy-on-write
    /// materializations).
    pub bytes_copied: u64,
    /// Nodes materialized by copies.
    pub nodes_copied: u64,
    /// Heap bytes of whole arenas that a handle clone shared instead of
    /// copying. Subtree views add nothing here.
    pub bytes_shared: u64,
    /// Nodes of whole arenas that a handle clone shared instead of
    /// copying. Subtree views add nothing here.
    pub nodes_shared: u64,
    /// Number of copy-on-write arena materializations.
    pub cow_materializations: u64,
    /// Number of O(1) subtree views taken (`Tree::subtree`).
    pub handle_shares: u64,
}

impl CopyStats {
    /// Read the current counter values.
    pub fn snapshot() -> Self {
        CopyStats {
            bytes_copied: BYTES_COPIED.load(Ordering::Relaxed),
            nodes_copied: NODES_COPIED.load(Ordering::Relaxed),
            bytes_shared: BYTES_SHARED.load(Ordering::Relaxed),
            nodes_shared: NODES_SHARED.load(Ordering::Relaxed),
            cow_materializations: COW_MATERIALIZATIONS.load(Ordering::Relaxed),
            handle_shares: HANDLE_SHARES.load(Ordering::Relaxed),
        }
    }

    /// Counter growth since an earlier snapshot (saturating, so a
    /// concurrent `reset` cannot underflow).
    pub fn delta_since(&self, earlier: &CopyStats) -> CopyStats {
        CopyStats {
            bytes_copied: self.bytes_copied.saturating_sub(earlier.bytes_copied),
            nodes_copied: self.nodes_copied.saturating_sub(earlier.nodes_copied),
            bytes_shared: self.bytes_shared.saturating_sub(earlier.bytes_shared),
            nodes_shared: self.nodes_shared.saturating_sub(earlier.nodes_shared),
            cow_materializations: self
                .cow_materializations
                .saturating_sub(earlier.cow_materializations),
            handle_shares: self.handle_shares.saturating_sub(earlier.handle_shares),
        }
    }

    /// Zero all counters (single-threaded harnesses only).
    pub fn reset() {
        BYTES_COPIED.store(0, Ordering::Relaxed);
        NODES_COPIED.store(0, Ordering::Relaxed);
        BYTES_SHARED.store(0, Ordering::Relaxed);
        NODES_SHARED.store(0, Ordering::Relaxed);
        COW_MATERIALIZATIONS.store(0, Ordering::Relaxed);
        HANDLE_SHARES.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_delta() {
        let before = CopyStats::snapshot();
        record_copy(3, 100);
        record_share(5, 400);
        record_cow();
        record_handle_share();
        let d = CopyStats::snapshot().delta_since(&before);
        assert_eq!(d.nodes_copied, 3);
        assert_eq!(d.bytes_copied, 100);
        assert_eq!(d.nodes_shared, 5);
        assert_eq!(d.bytes_shared, 400);
        assert_eq!(d.cow_materializations, 1);
        assert_eq!(d.handle_shares, 1);
    }
}
