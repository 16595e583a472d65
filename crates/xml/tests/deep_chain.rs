//! A chain far deeper than any call stack goes through the delta filter:
//! the canonical digest walks it with a stack of its own. (Alone in its
//! binary: a walk that recursed would abort the process, not fail a test.)

use axml_xml::equiv::CanonMultiset;
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

#[test]
fn the_delta_filter_takes_a_chain_deeper_than_the_stack() {
    let (a, twin, b) = (chain("end"), chain("end"), chain("END"));
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
}
