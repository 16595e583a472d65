//! The render's allocation budget: rendering a document into a buffer
//! that already has the room allocates nothing, except once — for the
//! copy the arena keeps — on its second render since it last changed.
//! Counted here with an allocator of this test binary's own.

use axml_xml::tree::Tree;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// A software catalog of `n` packages, each with a version and two
/// dependencies, some text needing escapes.
fn catalog(n: usize) -> Tree {
    let mut t = Tree::new("catalog");
    let root = t.root();
    for i in 0..n {
        let pkg = t.add_element(root, "pkg");
        t.set_attr(pkg, "name", format!("pkg-{i}")).unwrap();
        t.set_attr(pkg, "arch", "x86_64").unwrap();
        t.add_text_element(pkg, "version", format!("{}.{}", i % 7, i % 13));
        for d in 0..2 {
            let dep = t.add_text_element(pkg, "dep", format!("lib{} >= 1 & < 2", (i + d) % 97));
            t.set_attr(dep, "kind", "\"runtime\"").unwrap();
        }
    }
    t
}

#[test]
fn a_render_allocates_only_the_copy_it_keeps() {
    let mut doc = catalog(2_000);
    let mut out = Vec::new();
    for round in 0..2 {
        let want = doc.serialize().into_bytes();
        out.reserve(want.len());
        let mut render = || {
            out.clear();
            let (n, ()) = allocations(|| doc.serialize_into(&mut out));
            assert!(out == want, "round {round}");
            n
        };
        assert_eq!(render(), 0, "round {round}: the first render walks");
        assert_eq!(render(), 1, "round {round}: the second keeps a copy");
        for _ in 0..3 {
            assert_eq!(render(), 0, "round {round}: later ones copy it");
        }
        // a changed document starts over
        doc.add_element(doc.root(), "extra");
    }
}
