//! The delta filter's allocation budget: a canonical digest allocates
//! nothing, so neither does counting a tree already delivered, and a
//! batch costs the multiset only the growth of its map. Counted here with
//! an allocator of this test binary's own.

use axml_xml::equiv::{canonical_digest, CanonMultiset};
use axml_xml::tree::Tree;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::slice::from_ref;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note() {
    // A thread that is shutting down has no counter left; it is not one
    // that measures.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a `const`-initialised
// thread-local without a destructor, so touching it allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr`/`layout` describe a live `System` allocation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// How many allocations (growing one counts) `f` makes.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.get();
    let out = f();
    (ALLOCATIONS.get() - before, out)
}

/// An item as `sub_churn` feeds them.
fn item(i: usize) -> Tree {
    Tree::parse(&format!(
        r#"<item topic="t{}">item number {i}</item>"#,
        i % 7
    ))
    .unwrap()
}

#[test]
fn a_digest_allocates_nothing() {
    let mut wide = Tree::new("pkg");
    let root = wide.root();
    wide.set_attr(root, "name", "vim").unwrap();
    for i in 0..8 {
        let dep = wide.add_text_element(root, "dep", format!("lib{i}"));
        wide.set_attr(dep, "v", i.to_string()).unwrap();
    }
    for t in [item(17), wide] {
        let (n, _) = allocations(|| canonical_digest(&t, t.root()));
        assert_eq!(n, 0, "digest of {}", t.serialize());
    }
}

#[test]
fn recording_a_delivered_tree_allocates_nothing() {
    let (mut set, t) = (CanonMultiset::default(), item(3));
    set.record(from_ref(&t));
    let (n, _) = allocations(|| set.record(from_ref(&t)));
    assert_eq!(n, 0);
    assert_eq!(set.delivered(), 2);
}

#[test]
fn recording_known_digests_allocates_nothing() {
    let batch: Vec<Tree> = (0..64).map(item).collect();
    let digests: Vec<u128> = batch
        .iter()
        .map(|t| canonical_digest(t, t.root()))
        .collect();
    let mut set = CanonMultiset::default();
    set.record(&batch);
    let (n, _) = allocations(|| set.record_digests(&digests));
    assert_eq!(n, 0);
    assert_eq!(set.delivered(), 128);
}

#[test]
fn admitting_a_batch_allocates_for_the_map_only() {
    let batch: Vec<Tree> = (0..1_000).map(item).collect();
    // what a map of as many 128-bit keys costs to grow, by itself
    let (growth, _) = allocations(|| {
        let mut map = HashMap::new();
        for key in 0..batch.len() as u128 {
            map.insert(key, [0usize; 2]);
        }
        map
    });
    let mut set = CanonMultiset::default();
    let input = batch.clone();
    // the answer is the batch's own vector, filtered in place
    let (n, fresh) = allocations(|| set.admit(input));
    assert_eq!(fresh.len(), 1_000);
    assert!(n <= growth, "{n} allocations, the map's growth is {growth}");
    // all of it again: nothing is new, and nothing grows
    let (n, fresh) = allocations(|| set.admit(batch));
    assert!(fresh.is_empty());
    assert_eq!(n, 0);
}
