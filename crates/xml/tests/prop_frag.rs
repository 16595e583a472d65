//! Property tests for the zero-copy substrate: subtree-view/graft
//! round-trips, copy-on-write snapshot isolation, and structural-sharing
//! invariants.
//!
//! The central claim of the zero-copy substrate is that handles are
//! *observationally identical* to deep clones: serialization and canonical
//! equivalence must be bit-identical whether a subtree moved by handle or
//! by copy. These tests drive random trees (proptest) and random mutation
//! programs (a seeded `axml_prng::SplitMix64`) against a deep-clone
//! oracle.

use axml_prng::SplitMix64;
use axml_xml::equiv::{canonical_hash, whole_tree_equiv};
use axml_xml::tree::{NodeId, Tree};
use proptest::prelude::*;

// ---- tree generator (same shape as prop_xml.rs) -----------------------

#[derive(Debug, Clone)]
struct NodeSpec {
    label: String,
    attrs: Vec<(String, String)>,
    text: Option<String>,
    children: Vec<NodeSpec>,
}

fn arb_label() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_.-]{0,6}".prop_map(|s| s)
}

fn arb_node() -> impl Strategy<Value = NodeSpec> {
    let leaf = (
        arb_label(),
        proptest::collection::vec((arb_label(), "[a-z0-9 ]{0,6}"), 0..3),
        proptest::option::of("[a-z0-9]{1,8}".prop_map(|s| s)),
    )
        .prop_map(|(label, mut attrs, text)| {
            attrs.sort();
            attrs.dedup_by(|a, b| a.0 == b.0);
            NodeSpec {
                label,
                attrs,
                text,
                children: vec![],
            }
        });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            arb_label(),
            proptest::collection::vec((arb_label(), "[a-z0-9 ]{0,6}"), 0..3),
            proptest::option::of("[a-z0-9]{1,8}".prop_map(|s| s)),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(label, mut attrs, text, children)| {
                attrs.sort();
                attrs.dedup_by(|a, b| a.0 == b.0);
                NodeSpec {
                    label,
                    attrs,
                    text,
                    children,
                }
            })
    })
}

fn build(t: &mut Tree, at: NodeId, spec: &NodeSpec) {
    for (k, v) in &spec.attrs {
        t.set_attr(at, k.as_str(), v.clone()).unwrap();
    }
    if let Some(txt) = &spec.text {
        t.add_text(at, txt.clone());
    }
    for c in &spec.children {
        let el = t.add_element(at, c.label.as_str());
        build(t, el, c);
    }
}

fn arb_tree() -> impl Strategy<Value = Tree> {
    arb_node().prop_map(|spec| {
        let mut t = Tree::new(spec.label.as_str());
        let root = t.root();
        build(&mut t, root, &spec);
        t
    })
}

// ---- seeded mutation programs -----------------------------------------

/// Apply one random mutation to `t`, selecting targets by *preorder
/// position* (not raw id) so the identical program can be replayed on a
/// structurally equal tree with different arena ids.
fn mutate_once(t: &mut Tree, rng: &mut SplitMix64) {
    let live: Vec<NodeId> = t.descendants_with_self(t.root()).collect();
    let elements: Vec<NodeId> = live
        .iter()
        .copied()
        .filter(|&n| t.node(n).is_element())
        .collect();
    let pick = |rng: &mut SplitMix64, xs: &[NodeId]| xs[rng.gen_range(0..xs.len())];
    match rng.gen_range(0..4u32) {
        0 => {
            let at = pick(rng, &elements);
            let label = format!("m{}", rng.gen_range(0..20u32));
            t.add_element(at, label.as_str());
        }
        1 => {
            let at = pick(rng, &elements);
            t.add_text(at, format!("t{}", rng.gen_range(0..100u32)));
        }
        2 => {
            let at = pick(rng, &elements);
            let k = format!("k{}", rng.gen_range(0..5u32));
            let v = format!("v{}", rng.gen_range(0..100u32));
            t.set_attr(at, k.as_str(), v).unwrap();
        }
        _ => {
            // detach a non-root node, if any
            let candidates: Vec<NodeId> = live.iter().copied().filter(|&n| n != t.root()).collect();
            if !candidates.is_empty() {
                t.detach(pick(rng, &candidates)).unwrap();
            }
        }
    }
}

/// The deep-clone oracle: the subtree at `node` rebuilt from its own
/// serialization, sharing nothing with `t`. (The generator's text nodes
/// are non-empty and never adjacent, so the text holds all of it.)
fn deep_copy(t: &Tree, node: NodeId) -> Tree {
    Tree::parse(&t.serialize_node(node)).expect("a serialized subtree parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Sharing a subtree and grafting it elsewhere is byte-identical to
    /// deep-copying it: serialization AND canonical hash agree with the
    /// deep-clone oracle.
    #[test]
    fn view_graft_matches_deep_clone_oracle(t in arb_tree(), sel in any::<u64>()) {
        let live: Vec<NodeId> = t.descendants_with_self(t.root())
            .filter(|&n| t.node(n).is_element())
            .collect();
        let node = live[(sel as usize) % live.len()];

        // by-handle path
        let view = t.subtree(node).unwrap();
        let mut via_handle = Tree::new("sink");
        let r = via_handle.root();
        via_handle.graft(r, &view, view.root()).unwrap();

        // by-copy oracle
        let oracle_sub = deep_copy(&t, node);
        let mut via_copy = Tree::new("sink");
        let r2 = via_copy.root();
        via_copy.graft(r2, &oracle_sub, oracle_sub.root()).unwrap();

        prop_assert_eq!(via_handle.serialize(), via_copy.serialize());
        prop_assert_eq!(canonical_hash(&via_handle, via_handle.root()), canonical_hash(&via_copy, via_copy.root()));
        // and the view itself serializes exactly like the source subtree
        prop_assert_eq!(view.serialize(), t.serialize_node(node));
    }

    /// A subtree view is observationally equal to a compact deep copy.
    #[test]
    fn subtree_view_matches_deep_copy(t in arb_tree(), sel in any::<u64>()) {
        let live: Vec<NodeId> = t.descendants_with_self(t.root())
            .filter(|&n| t.node(n).is_element())
            .collect();
        let node = live[(sel as usize) % live.len()];
        let view = t.subtree(node).unwrap();
        let copy = deep_copy(&t, node);
        prop_assert!(view.shares_arena_with(&t));
        prop_assert_eq!(view.serialize(), copy.serialize());
        prop_assert_eq!(canonical_hash(&view, view.root()), canonical_hash(&copy, copy.root()));
        prop_assert!(whole_tree_equiv(&view, &copy));
        prop_assert_eq!(view.live_len(), copy.live_len());
        // the view root never leaks structure above the view
        prop_assert_eq!(view.parent(view.root()), None);
    }

    /// Copy-on-write snapshot isolation: replaying the same seeded
    /// mutation program on a shared handle and on a deep-clone oracle
    /// yields identical results, and the original never changes.
    #[test]
    fn cow_mutation_matches_deep_clone_oracle(t in arb_tree(), seed in any::<u64>()) {
        let frozen = t.serialize();
        let frozen_hash = canonical_hash(&t, t.root());

        let mut shared = t.clone();          // O(1) handle
        let mut oracle = deep_copy(&t, t.root()); // compact deep clone

        let mut rng1 = SplitMix64::new(seed);
        let mut rng2 = SplitMix64::new(seed);
        for _ in 0..8 {
            mutate_once(&mut shared, &mut rng1);
            mutate_once(&mut oracle, &mut rng2);
        }

        // same program ⇒ same observable tree
        prop_assert_eq!(shared.serialize(), oracle.serialize());
        prop_assert_eq!(canonical_hash(&shared, shared.root()), canonical_hash(&oracle, oracle.root()));
        // the original snapshot is untouched by the COW mutations
        prop_assert_eq!(t.serialize(), frozen);
        prop_assert_eq!(canonical_hash(&t, t.root()), frozen_hash);
        // and the arenas have diverged
        prop_assert!(!shared.shares_arena_with(&t));
    }

    /// Subtree views pin their snapshot across arbitrary source mutations.
    #[test]
    fn view_pins_snapshot_across_mutations(t in arb_tree(), sel in any::<u64>(), seed in any::<u64>()) {
        let live: Vec<NodeId> = t.descendants_with_self(t.root())
            .filter(|&n| t.node(n).is_element())
            .collect();
        let node = live[(sel as usize) % live.len()];
        let view = t.subtree(node).unwrap();
        let before = view.serialize();

        let mut mutated = t.clone();
        let mut rng = SplitMix64::new(seed);
        for _ in 0..8 {
            mutate_once(&mut mutated, &mut rng);
        }
        prop_assert_eq!(view.serialize(), before);
        prop_assert_eq!(view.serialize(), t.serialize_node(node));
    }

    /// Structural sharing holds until (and only until) mutation.
    #[test]
    fn clone_shares_until_mutation(t in arb_tree()) {
        let mut c = t.clone();
        prop_assert!(c.shares_arena_with(&t));
        let r = c.root();
        c.add_element(r, "poke");
        prop_assert!(!c.shares_arena_with(&t));
        // the second mutation must not re-copy: still unshared
        c.add_element(r, "poke2");
        prop_assert!(!c.shares_arena_with(&t));
    }
}
