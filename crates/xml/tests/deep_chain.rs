//! Chains far deeper than any call stack go through the delta filter,
//! equivalence, the canonical hash, `Tree ==`, serialization (the walk,
//! the bytes memo, `Debug` and the pretty form), size accounting and
//! `graft`: each walks them with a stack of its own. (Alone in its binary:
//! a walk that recursed would abort the process, not fail a test.)

use axml_xml::equiv::{canonical_hash, forest_equiv, tree_equiv, whole_tree_equiv, CanonMultiset};
use axml_xml::tree::Tree;
use std::slice::from_ref;

const DEPTH: usize = 200_000;

/// `DEPTH` elements, each the only child of the one above, all labeled
/// `link` but the last — grown by grafting one element at a time.
fn chain(bottom: &str) -> Tree {
    let (link, end) = (Tree::new("link"), Tree::new(bottom));
    let mut chain = Tree::new("link");
    let mut tip = chain.root();
    for _ in 2..DEPTH {
        tip = chain.graft(tip, &link, link.root()).unwrap();
    }
    chain.graft(tip, &end, end.root()).unwrap();
    chain
}

/// Runs `f` on a thread with a small stack: any walk that recursed once
/// per level would overflow it.
fn on_a_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(64 * 1024)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap();
}

/// Two equal chains and one that differs at the bottom.
fn chains() -> (Tree, Tree, Tree) {
    (chain("end"), chain("end"), chain("END"))
}

#[test]
fn the_delta_filter_takes_a_chain_deeper_than_the_stack() {
    let (a, twin, b) = chains();
    on_a_small_stack(move || {
        let mut set = CanonMultiset::default();
        set.record(from_ref(&a));
        assert_eq!(set.delivered(), 1);
        // an equal chain is not new, the one that differs at the bottom is
        let fresh = set.admit(vec![twin.clone(), b.clone()]);
        assert_eq!(fresh.len(), 1);
        assert!(fresh[0].shares_arena_with(&b));
        assert_eq!(set.delivered(), 2);
        set.retract(&fresh);
        set.retract(from_ref(&twin));
        assert_eq!(set.delivered(), 0);
        assert_eq!(set.admit(vec![a.clone(), b]).len(), 2);

        // the chain below the root, as the one child of a document
        let below = CanonMultiset::of_children(&a, a.root());
        assert_eq!(below.delivered(), 1);
    });
}

#[test]
fn equivalence_hash_and_equality_take_chains_deeper_than_the_stack() {
    let (a, twin, b) = chains();
    on_a_small_stack(move || {
        assert!(whole_tree_equiv(&a, &twin));
        assert!(!whole_tree_equiv(&a, &b));
        let below = twin.children(twin.root())[0];
        assert!(!tree_equiv(&a, a.root(), &twin, below));
        let (ab, b_twin, a_twin) = (
            [a.clone(), b.clone()],
            [b.clone(), twin.clone()],
            [a.clone(), twin.clone()],
        );
        assert!(forest_equiv(&ab, &b_twin));
        assert!(!forest_equiv(&ab, &a_twin));

        let hash = |t: &Tree| canonical_hash(t, t.root());
        assert_eq!(hash(&a), hash(&twin));
        assert_ne!(hash(&a), hash(&b));

        // `assert!`, not `assert_eq!`: a failure would print the trees.
        assert!(a == twin);
        assert!(a != b);
    });
}

#[test]
fn serialization_and_sizes_take_a_chain_deeper_than_the_stack() {
    let a = chain("end");
    on_a_small_stack(move || {
        // DEPTH - 1 `<link>…</link>` around one `<end/>`
        let len = (DEPTH - 1) * "<link></link>".len() + "<end/>".len();
        let text = a.serialize_node(a.root());
        assert_eq!(text.len(), len);
        let opened = (DEPTH - 1) * "<link>".len();
        assert_eq!(text.find("<end/>"), Some(opened));
        assert!(text[..opened].starts_with("<link><link>") && text.ends_with("</link></link>"));
        // twice to walk and keep the bytes, a third time to copy them
        for _ in 0..3 {
            let mut out = Vec::new();
            a.serialize_into(&mut out);
            assert!(out == text.as_bytes());
        }
        assert_eq!(format!("{a:?}").len(), "Tree()".len() + len);

        let below = a.subtree(a.children(a.root())[0]).unwrap();
        assert_eq!(below.serialized_size(), len - "<link></link>".len());
        assert_eq!(a.serialized_size(), len);
        // one visit per node, children before their parent
        let (mut visits, mut last) = (0, None);
        let total = a.serialized_sizes(a.root(), &mut |n, size| {
            if let Some(child) = last {
                assert_eq!(a.children(n), [child]);
            }
            assert_eq!(size, "<end/>".len() + visits * "<link></link>".len());
            visits += 1;
            last = Some(n);
        });
        assert_eq!((total, visits, last), (len, DEPTH, Some(a.root())));
    });
}

#[test]
fn a_chain_deeper_than_the_stack_is_grafted_whole() {
    let a = chain("end");
    on_a_small_stack(move || {
        let mut copy = Tree::new("top");
        let top = copy.root();
        let got = copy.graft(top, &a, a.root()).unwrap();
        // the copy's nodes are numbered in the source's preorder
        let ids: Vec<usize> = copy.descendants_with_self(got).map(|n| n.index()).collect();
        assert_eq!(ids.len(), DEPTH);
        assert!(ids.iter().enumerate().all(|(i, &id)| id == got.index() + i));
        // `assert!`, not `assert_eq!`: a failure would print the trees.
        assert!(copy.subtree(got).unwrap() == a);
    });
}

#[test]
fn a_chain_deeper_than_the_stack_prints_pretty() {
    // Each level is indented one step further, so the pretty form grows
    // with the square of the depth: a shorter chain, still far deeper
    // than a 64 KiB stack holds frames.
    const LEVELS: usize = 4_000;
    let (link, end) = (Tree::new("link"), Tree::new("end"));
    let mut chain = Tree::new("link");
    let mut tip = chain.root();
    for _ in 2..LEVELS {
        tip = chain.graft(tip, &link, link.root()).unwrap();
    }
    chain.graft(tip, &end, end.root()).unwrap();
    on_a_small_stack(move || {
        let pretty = chain.pretty();
        let lines: Vec<&str> = pretty.lines().collect();
        assert_eq!(lines.len(), 2 * LEVELS - 1);
        for (depth, line) in lines.iter().enumerate() {
            // opened down to `<end/>`, then closed back up
            let level = depth.min(2 * LEVELS - 2 - depth);
            let want = match depth {
                d if d < LEVELS - 1 => "<link>",
                d if d == LEVELS - 1 => "<end/>",
                _ => "</link>",
            };
            assert!(line.len() == 2 * level + want.len() && line.ends_with(want));
        }
    });
}
