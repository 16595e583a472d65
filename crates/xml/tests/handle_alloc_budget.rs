//! What a handle costs the heap: a subtree view and a preorder walk
//! allocate nothing, and a graft allocates exactly what building the same
//! subtree node by node allocates — the same number of blocks, of the same
//! sizes, so a copy holds the heap a built tree holds. Counted here with
//! an allocator of this test binary's own.

use axml_xml::tree::{NodeId, NodeKind, Tree};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their
    /// own), and the bytes they asked for.
    static ALLOCATIONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn note(bytes: usize) {
    // A thread that is shutting down has no counter left; it is not one
    // that measures.
    let _ = ALLOCATIONS.try_with(|n| {
        let (count, total) = n.get();
        n.set((count + 1, total + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a `const`-initialised
// thread-local without a destructor, so touching it allocates nothing.
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

/// How many allocations (growing one counts) `f` makes, and the bytes
/// they ask for.
fn allocations<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let (count, bytes) = ALLOCATIONS.get();
    let out = f();
    let (count2, bytes2) = ALLOCATIONS.get();
    ((count2 - count, bytes2 - bytes), out)
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

/// Build a copy of `src`'s subtree at `node` under `at`, node by node
/// through the public builders (recursing, so the walk itself allocates
/// nothing).
fn replay(dst: &mut Tree, at: NodeId, src: &Tree, node: NodeId) {
    match src.node(node).kind() {
        NodeKind::Element { label, attrs } => {
            let el = dst.add_element(at, *label);
            for (name, value) in attrs {
                dst.set_attr(el, *name, value.clone()).unwrap();
            }
            for &child in src.children(node) {
                replay(dst, el, src, child);
            }
        }
        NodeKind::Text(text) => {
            dst.add_text(at, text.clone());
        }
    }
}

#[test]
fn a_view_allocates_nothing() {
    let doc = catalog(1_000);
    let pkg = doc.children(doc.root())[500];
    for id in [doc.root(), pkg] {
        let (cost, view) = allocations(|| doc.subtree(id).unwrap());
        assert_eq!(cost.0, 0, "subtree({id})");
        assert_eq!(view.root(), id);
    }
}

#[test]
fn a_preorder_walk_allocates_nothing() {
    let doc = catalog(1_000);
    let (cost, n) = allocations(|| doc.descendants_with_self(doc.root()).count());
    assert_eq!(n, 1 + 1_000 * 7);
    assert_eq!(cost.0, 0);
}

#[test]
fn a_graft_allocates_what_building_the_copy_allocates() {
    let doc = catalog(1_000);
    for i in [0, 1, 500, 999] {
        let view = doc.subtree(doc.children(doc.root())[i]).unwrap();
        let mut grafted = Tree::new("mirror");
        let mut built = Tree::new("mirror");
        let (at, at2) = (grafted.root(), built.root());
        let (graft, _) = allocations(|| grafted.graft(at, &view, view.root()).unwrap());
        let (build, ()) = allocations(|| replay(&mut built, at2, &view, view.root()));
        assert_eq!(graft, build, "pkg {i}: (allocations, bytes)");
        assert_eq!(grafted, built, "pkg {i}");
    }
}
