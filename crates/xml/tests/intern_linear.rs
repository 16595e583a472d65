//! What interning costs the heap: a fresh label is its text and its
//! entry, two blocks, plus its share of the one map's growth — so
//! interning n fresh names allocates O(n) bytes, and twice the names at
//! most ~2.5 times the bytes. Counted with an allocator of this test
//! binary's own; alone in its binary, so the interner starts empty.

use axml_xml::symbol::{interner_stats, Label};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Blocks allocated by this thread (a grown block counts as one).
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those blocks were asked to hold.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note(size: usize) {
    // A thread that is shutting down has no counters left; it is not one
    // that measures.
    let _ = BLOCKS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are `const`-initialised
// thread-locals without destructors, so touching them allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` allocation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `(blocks, bytes)` allocated while interning `names`, each fresh.
fn intern_all(names: &[String]) -> (u64, u64) {
    let (blocks, bytes) = (BLOCKS.get(), BYTES.get());
    for name in names {
        Label::new(name);
    }
    (BLOCKS.get() - blocks, BYTES.get() - bytes)
}

fn names(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}-{i:05}")).collect()
}

#[test]
fn interning_fresh_names_is_linear() {
    const N: usize = 10_000;
    let (first, second) = (names("first-batch", N), names("second-batch", N));
    let (blocks_n, bytes_n) = intern_all(&first);
    let (blocks_2n, bytes_2n) = {
        let (blocks, bytes) = intern_all(&second);
        (blocks_n + blocks, bytes_n + bytes)
    };
    assert_eq!(interner_stats().0, 2 * N as u64, "every name was fresh");
    assert!(
        bytes_2n * 2 <= bytes_n * 5,
        "twice the names cost {bytes_n} -> {bytes_2n} bytes"
    );
    // ~2.5 MB; the sharded snapshots this replaced allocated ~1.4 GB here.
    assert!(bytes_2n < 8 << 20, "{bytes_2n} bytes for {} names", 2 * N);
    // Two blocks per label (its text, its entry) and the map's doublings.
    assert!(blocks_2n <= 2 * 2 * N as u64 + 64, "{blocks_2n} blocks");
}
