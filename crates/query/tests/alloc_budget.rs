//! The evaluator's allocation budget: work proportional to what a query
//! scans and what it answers means no allocation per input item, one walk
//! of a closed scan however many outer tuples read it, no allocation per
//! outer tuple that a join's index turns away, and — once an unchanged
//! arena keeps a closed scan — no walk of it at all. All are counted
//! here, with an allocator of this test binary's own.

use axml_query::Query;
use axml_xml::ids::DocName;
use axml_xml::tree::Tree;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
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

/// `sub_churn`'s `watch` selection over a board of `items` items, 20 of
/// them on the watched topic.
fn watch(items: usize) -> u64 {
    let mut xml = String::from("<board>");
    for i in 0..items {
        let topic = if i % (items / 20) == 0 { 7 } else { i % 7 };
        let _ = write!(xml, r#"<item topic="t{topic}">item number {i}</item>"#);
    }
    xml.push_str("</board>");
    let docs: HashMap<DocName, Tree> = [("board".into(), Tree::parse(&xml).unwrap())].into();
    let src = r#"for $i in doc("board")/item where $i/@topic = "t7" return {$i}"#;
    let q = Query::parse("watch", src).unwrap();
    let (n, hits) = allocations(|| q.eval_with_docs(&[], &docs).unwrap());
    assert_eq!(hits.len(), 20);
    n
}

#[test]
fn a_selection_allocates_for_its_answer_not_its_input() {
    // Four times the items, the same 20 hits: the one list the scan keeps
    // doubles twice more, and nothing else may notice.
    let (small, large) = (watch(1_000), watch(4_000));
    assert!(
        small.abs_diff(large) <= 2 && small < 60,
        "1 000 items: {small} allocations, 4 000 items: {large}"
    );
}

/// A catalog of `n` packages, every tenth one big; among the first 1 000,
/// one big package in ten carries a name the other catalogs share.
fn catalog(own: &str, n: usize) -> Vec<Tree> {
    let mut xml = String::from("<catalog>");
    for i in 0..n {
        let size = if i % 10 == 0 { 120_000 + i } else { 30_000 + i };
        let name = if i % 100 == 0 && i < 1_000 {
            "shared"
        } else {
            own
        };
        let _ = write!(
            xml,
            r#"<pkg name="{name}-{i:05}"><size>{size}</size><desc>package {i}</desc></pkg>"#
        );
    }
    xml.push_str("</catalog>");
    vec![Tree::parse(&xml).unwrap()]
}

#[test]
fn a_join_scans_its_closed_side_once() {
    // `query_ship`'s `double-use` shape: 100 outer tuples over an inner
    // scan of 1 000 packages that reads no variable, 10 pairs to answer.
    let src = r#"for $x in $0//pkg[size > 100000] for $y in $1//pkg[size > 100000]
        where $x/@name = $y/@name return <p>{$x/@name}</p>"#;
    let q = Query::parse("pair", src).unwrap();
    let inputs = [catalog("left", 1_000), catalog("right", 1_000)];
    let (n, pairs) = allocations(|| q.eval_batch(&inputs).unwrap());
    assert_eq!(pairs.len(), 10);
    // Two scans' lists (6 allocations each as they double to 128), the
    // join's index and its buffer of picked items, ten answers, the plan's
    // own bookkeeping: 78 when this was written. Walking the inner scan
    // again for each of the 100 outer tuples would add 600; one allocation
    // per package scanned or pair compared, thousands.
    assert!(n < 150, "{n} allocations");
}

/// `pair` with an inner scan of `inner` packages: 100 outer tuples, the
/// same 10 pairs to answer however many packages the inner scan holds.
fn probed(inner: usize) -> u64 {
    let src = r#"for $x in $0//pkg[size > 100000] for $y in $1//pkg
        where $x/@name = $y/@name return <p>{$x/@name}</p>"#;
    let q = Query::parse("pair", src).unwrap();
    let inputs = [catalog("left", 1_000), catalog("right", inner)];
    let (n, pairs) = allocations(|| q.eval_batch(&inputs).unwrap());
    assert_eq!(pairs.len(), 10);
    n
}

#[test]
fn a_join_probes_instead_of_rescanning() {
    // Four times the inner items: the scan's list doubles twice more (the
    // index is sized from it at once), and nothing else may notice — an
    // outer tuple that picks no item allocates nothing, one that picks
    // some reuses the level's buffer. 81 and 83 when this was written.
    let (small, large) = (probed(1_000), probed(4_000));
    assert_eq!(
        large,
        small + 2,
        "1 000 items: {small} allocations, 4 000 items: {large}"
    );
    assert!(small < 150, "{small} allocations");
}

/// A catalog of `n` packages, ten of them big, however many there are.
fn ten_big(n: usize) -> Vec<Tree> {
    let mut xml = String::from("<catalog>");
    for i in 0..n {
        let size = if i % (n / 10) == 0 { 120_000 } else { 30_000 } + i;
        let _ = write!(
            xml,
            r#"<pkg name="pkg-{i:05}"><size>{size}</size><desc>package {i}</desc></pkg>"#
        );
    }
    xml.push_str("</catalog>");
    vec![Tree::parse(&xml).unwrap()]
}

/// The allocations of a first and a second `select-big` over one catalog
/// of `n` packages.
fn selected_twice(n: usize) -> (u64, u64) {
    let src = r#"for $p in $0//pkg where $p/size/text() > 100000
        return <big name="{$p/@name}">{$p/size}</big>"#;
    let q = Query::parse("select-big", src).unwrap();
    let inputs = [ten_big(n)];
    let (first, a) = allocations(|| q.eval_batch(&inputs).unwrap());
    let (second, b) = allocations(|| q.eval_batch(&inputs).unwrap());
    assert_eq!(a, b);
    assert_eq!(b.len(), 10);
    (first, second)
}

#[test]
fn a_repeated_closed_scan_reads_the_arena() {
    // `query_ship`'s `select-big`, twice over one unchanged catalog: the
    // first evaluation walks the catalog and keeps the ten packages its
    // own conjunct passes on the arena; the second reads them, so it
    // allocates for its ten answers, whatever the catalog's size.
    let ((first_small, small), (first_large, large)) =
        (selected_twice(1_000), selected_twice(4_000));
    assert_eq!(
        small, large,
        "1 000 items: {small} allocations, 4 000 items: {large}"
    );
    // The kept list holds the packages that pass: the first walk's list
    // does not grow with the catalog either.
    assert_eq!(first_small, first_large);
    // 110 and 121 when this was written, ~10 per answer tree built.
    assert!(small < first_small && small < 120, "{small} allocations");
}

/// The allocations of a second evaluation of `for $p in $0//pkg where
/// $p/size/text() > 100000 return <template>` over one catalog of
/// 1 000 packages with ten big ones: the scan is kept, so what remains
/// is the answers.
fn selected_again(template: &str) -> u64 {
    let src = format!("for $p in $0//pkg where $p/size/text() > 100000 return {template}");
    let q = Query::parse("select-big", &src).unwrap();
    let inputs = [ten_big(1_000)];
    q.eval_batch(&inputs).unwrap();
    let (n, answers) = allocations(|| q.eval_batch(&inputs).unwrap());
    assert_eq!(answers.len(), 10);
    n
}

#[test]
fn a_template_answer_costs_its_handle_slots_and_new_strings() {
    // `query_ship`'s `select-big` template against answering with views
    // of the packages, which build nothing: the difference is what ten
    // constructed answers cost. They are built side by side in one arena:
    // its slots as they grow (30 nodes: 4, 8, 16, 32), its one handle,
    // the list of the answers' roots (4, 8, 16) and the answer list, one
    // attribute list per answer, less the views' list as it doubles. The
    // name is the catalog's own string, and the copied `size` keeps its
    // children inline and shares its text, so neither costs a block.
    // 16 when this was written; up to 4 per answer (40) when each answer
    // was an arena of its own and its name a copy.
    let built = selected_again(r#"<big name="{$p/@name}">{$p/size}</big>"#);
    let views = selected_again("{$p}");
    assert!(
        built - views <= 16,
        "{} allocations per answer",
        (built - views) as f64 / 10.0
    );
}

#[test]
fn a_template_literal_is_shared_not_copied() {
    // A literal attribute value or text in a template is the plan's own
    // string: every answer that copies it bumps a count. Beyond views of
    // the packages, ten answers cost the shared arena's growth, its
    // handle and the lists of roots and answers (7 blocks for 50 nodes),
    // plus one attribute list per answer that has attributes, and
    // nothing for the literal (30 blocks, 3 per answer, when each answer
    // was an arena of its own; 40 when every answer copied the literal).
    let views = selected_again("{$p}");
    for (template, blocks) in [
        (r#"<big kind="pkg">{$p/size}</big>"#, 16),
        ("<big>{$p/size}<note>big package</note></big>", 7),
    ] {
        let built = selected_again(template);
        assert_eq!(built - views, blocks, "{template}");
    }
}

#[test]
fn a_probe_allocates_nothing_per_attribute() {
    // 8 000 subscriptions like `sub_churn`'s, filtering on one of 8
    // attributes for one of 1 000 values: the index keys them by
    // attribute, then by value.
    let mut index = axml_query::MatchIndex::new("board".into());
    for id in 0..8_000u64 {
        let src = format!(
            r#"for $i in doc("board")/item where $i/@a{} = "v{}" return {{$i}}"#,
            id % 8,
            id % 1_000
        );
        index.register(id, &Query::parse("watch", &src).unwrap());
    }
    // One-item deltas that hit nobody, with 1 indexed attribute or 8:
    // looking a value up borrows it, so the probe's cost does not depend
    // on how many attributes the item carries.
    let probe = |attrs: usize| {
        let mut xml = String::from("<item");
        for a in 0..attrs {
            let _ = write!(xml, r#" a{a}="nobody's value {a}""#);
        }
        xml.push_str(">text</item>");
        let delta = Tree::parse(&xml).unwrap();
        let (n, hits) = allocations(|| index.probe(&delta));
        assert!(hits.is_empty());
        n
    };
    let (one, eight) = (probe(1), probe(8));
    assert_eq!(one, eight, "1 attribute: {one} allocations, 8: {eight}");
    // An item that some subscriptions watch is found by the same lookup.
    let delta = Tree::parse(r#"<item a0="nobody" a3="v3" a7="v7"/>"#).unwrap();
    let hits = index.probe(&delta);
    assert_eq!(hits.len(), 16);
    assert!(hits.iter().all(|id| [3, 7].contains(&(id % 1_000))));
}
