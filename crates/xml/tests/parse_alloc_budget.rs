//! What parsing costs the heap: the parser makes each non-whitespace text
//! and attribute value once, from a borrow of the input — one block each,
//! a second only for one holding a character reference — and nothing per
//! element name, attribute name or whitespace between elements. Beyond
//! the strings, a parse allocates what building the same tree node by
//! node allocates: the arena as it grows, a list per element with
//! attributes, and the child lists that outgrow their inline slots. An
//! element with 3 children or fewer costs nothing of its own. Counted
//! here with an allocator of this test binary's own.

use axml_xml::tree::{NodeId, NodeKind, Tree};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write;

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

/// A pretty-printed software catalog of `n` packages: two attributes and
/// a version each, every third package two dependencies, every fifth a
/// text with a character reference.
fn catalog(n: usize) -> String {
    let mut xml = String::from("<?xml version=\"1.0\"?>\n<catalog>\n");
    for i in 0..n {
        let _ = write!(
            xml,
            "  <pkg name=\"pkg-{i}\" arch='x86_64'>\n    <version>{}.{}</version>\n",
            i % 7,
            i % 13
        );
        if i % 3 == 0 {
            for d in 0..2 {
                let _ = writeln!(xml, "    <dep kind=\"runtime\">lib{}</dep>", i + d);
            }
        }
        if i % 5 == 0 {
            xml.push_str("    <note>a &lt; b &amp;&#x20;c</note>\n");
        }
        xml.push_str("  </pkg>\n");
    }
    xml.push_str("</catalog>\n");
    xml
}

/// Build a copy of `src`'s subtree at `node` under `at`, node by node,
/// each string made from a borrow (recursing, so the walk itself
/// allocates nothing).
fn replay(dst: &mut Tree, at: NodeId, src: &Tree, node: NodeId) {
    match src.node(node).kind() {
        NodeKind::Element { label, attrs } => {
            let el = dst.add_element(at, *label);
            for (name, value) in attrs {
                dst.set_attr(el, *name, &**value).unwrap();
            }
            for &child in src.children(node) {
                replay(dst, el, src, child);
            }
        }
        NodeKind::Text(text) => {
            dst.add_text(at, &**text);
        }
    }
}

/// What building `t` node by node from borrowed strings allocates.
fn built(t: &Tree) -> u64 {
    let root = t.root();
    let (n, copy) = allocations(|| {
        let mut copy = Tree::new(t.label(root).unwrap());
        let at = copy.root();
        for (name, value) in t.attrs(root) {
            copy.set_attr(at, *name, &**value).unwrap();
        }
        for &child in t.children(root) {
            replay(&mut copy, at, t, child);
        }
        copy
    });
    assert_eq!(&copy, t);
    n
}

#[test]
fn a_parse_allocates_what_building_from_borrowed_strings_allocates() {
    for n in [1, 10, 1_000] {
        let xml = catalog(n);
        Tree::parse(&xml).unwrap(); // intern the labels
        let (parsed, t) = allocations(|| Tree::parse(&xml).unwrap());
        // every text or value with a reference was decoded into a string
        // of its own first
        let decoded = xml.matches("&lt;").count() as u64;
        assert_eq!(parsed, built(&t) + decoded, "{n} packages");
    }
}

#[test]
fn a_catalog_costs_one_block_per_string() {
    let xml = catalog(10);
    Tree::parse(&xml).unwrap(); // intern the labels
    let (parsed, t) = allocations(|| Tree::parse(&xml).unwrap());
    let nodes = t.live_len() as u64;
    let texts = t.descendants(t.root()).filter(|&n| !t.node(n).is_element());
    let (texts, values) = (texts.count() as u64, 2 * 10 + 2 * 4);
    // The arena: its handle, 4 slots, then doubling to 64 for 51 nodes.
    assert_eq!(nodes, 1 + 10 * 3 + 4 * 2 * 2 + 2 * 2);
    let arena = 2 + 4;
    // A list per element with attributes (10 packages, 8 dependencies);
    // two child lists spill: the catalog's 10 children (to 6, then 12)
    // and the first package's 4 (to 6).
    let lists = 10 + 8 + 2 + 1;
    let references = 2;
    assert_eq!(
        parsed,
        arena + lists + texts + values + references,
        "{texts} texts, {values} values"
    );
}

#[test]
fn small_elements_and_whitespace_allocate_nothing() {
    // A complete ternary tree, pretty-printed: every element has 3
    // children or fewer, no attributes and no text but whitespace.
    fn ternary(depth: usize, xml: &mut String) {
        let pad = "  ".repeat(5 - depth);
        if depth == 0 {
            let _ = writeln!(xml, "{pad}<leaf/>");
            return;
        }
        let _ = writeln!(xml, "{pad}<node>");
        for _ in 0..3 {
            ternary(depth - 1, xml);
        }
        let _ = writeln!(xml, "{pad}</node>");
    }
    let mut xml = String::new();
    ternary(5, &mut xml);
    Tree::parse(&xml).unwrap(); // intern the labels
    let (parsed, t) = allocations(|| Tree::parse(&xml).unwrap());
    assert_eq!(t.live_len(), 364);
    // Only the arena: its handle, 4 slots, then doubling to 512.
    assert_eq!(parsed, 2 + 7);
}
