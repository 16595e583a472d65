//! Immutable subtree handles with structural sharing.
//!
//! A [`Frag`] is the currency for moving a subtree between engine layers
//! *without copying it*: it pins the owning arena alive through an `Arc`
//! and remembers which node is the subtree root. Creating one
//! ([`crate::tree::Tree::share`]), cloning one, and turning one back into
//! a [`Tree`] view are all O(1). Because a `Frag` offers no mutation API
//! at all, any number of consumers can hold the same subtree concurrently
//! — the single materializing operation is grafting it into another
//! arena ([`crate::tree::Tree::graft_frag`]), where fresh node ids make a
//! copy unavoidable.
//!
//! The mutability story is split deliberately: [`Tree`] is the
//! copy-on-write *owner* handle (mutation materializes a private arena if
//! shared), `Frag` is the immutable *reader* handle. Handing a `Frag` to
//! another component can never trigger a copy-on-write in the producer,
//! and the consumer can never observe mutation — snapshot isolation by
//! construction.

use crate::symbol::Label;
use crate::tree::{Arena, NodeId, Tree};
use std::fmt;
use std::sync::Arc;

/// An immutable, cheaply cloneable handle on a subtree of some [`Tree`]'s
/// arena. See the module docs for the sharing model.
pub struct Frag {
    nodes: Arc<Arena>,
    root: NodeId,
    arena_bytes: u64,
}

impl Clone for Frag {
    /// O(1): bumps the arena's reference count.
    fn clone(&self) -> Self {
        crate::stats::record_handle_share();
        Frag {
            nodes: Arc::clone(&self.nodes),
            root: self.root,
            arena_bytes: self.arena_bytes,
        }
    }
}

impl Frag {
    pub(crate) fn from_parts(nodes: Arc<Arena>, root: NodeId, arena_bytes: u64) -> Frag {
        Frag {
            nodes,
            root,
            arena_bytes,
        }
    }

    /// The subtree root's id *in the owning arena* (stable for the
    /// arena's lifetime; meaningless in any other tree).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// An internal read-only [`Tree`] view over the same arena — no
    /// counter traffic, used to reuse `Tree`'s traversal/serialization
    /// machinery.
    pub(crate) fn view(&self) -> Tree {
        Tree::from_parts(Arc::clone(&self.nodes), self.root, self.arena_bytes)
    }

    /// Promote the frag to a [`Tree`] handle — O(1), the arena is shared.
    /// The result is copy-on-write: mutating it materializes a private
    /// arena and leaves every other holder untouched.
    pub fn to_tree(&self) -> Tree {
        crate::stats::record_handle_share();
        self.view()
    }

    /// Extract the subtree into a fresh, compact [`Tree`] (a real copy;
    /// counted as one). Use when the frag must outlive a large source
    /// arena without pinning it.
    pub fn deep_copy(&self) -> Tree {
        let v = self.view();
        v.deep_copy(self.root)
    }

    /// The root element's label, or `None` if the frag is rooted at a
    /// text node.
    pub fn label(&self) -> Option<Label> {
        self.nodes[self.root.index()].label()
    }

    /// Number of nodes in the shared subtree.
    pub fn len(&self) -> usize {
        self.view().subtree_size(self.root)
    }

    /// True when the frag is a single node.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Serialize the subtree to compact XML text — byte-identical to
    /// serializing the same subtree from the owning tree.
    pub fn serialize(&self) -> String {
        self.view().serialize_node(self.root)
    }

    /// Serialized size in bytes (the wire-accounting measure), without
    /// building the string.
    pub fn serialized_size(&self) -> usize {
        self.view().serialized_size_node(self.root)
    }

    /// Do two frags share the same arena (structural sharing)?
    pub fn shares_arena_with(&self, other: &Frag) -> bool {
        Arc::ptr_eq(&self.nodes, &other.nodes)
    }

    /// Does this frag share its arena with `tree`?
    pub fn shares_arena_with_tree(&self, tree: &Tree) -> bool {
        Arc::ptr_eq(&self.nodes, &tree.nodes)
    }
}

impl fmt::Debug for Frag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Frag({})", self.serialize())
    }
}

impl PartialEq for Frag {
    /// Ordered structural equality of the subtrees (same semantics as
    /// [`Tree`]'s `PartialEq`); `Arc`-identical frags short-circuit.
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.nodes, &other.nodes) && self.root == other.root {
            return true;
        }
        self.view() == other.view()
    }
}

impl Eq for Frag {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tree {
        let mut t = Tree::new("catalog");
        let r = t.root();
        let p = t.add_element(r, "pkg");
        t.set_attr(p, "name", "vim").unwrap();
        t.add_text_element(p, "version", "9.1");
        t
    }

    #[test]
    fn share_is_zero_copy_and_serializes_identically() {
        let t = sample();
        let pkg = t.first_child_labeled(t.root(), "pkg").unwrap();
        let f = t.share(pkg).unwrap();
        assert!(f.shares_arena_with_tree(&t));
        assert_eq!(f.serialize(), t.serialize_node(pkg));
        assert_eq!(f.serialized_size(), f.serialize().len());
        assert_eq!(f.label().unwrap().as_str(), "pkg");
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
    }

    #[test]
    fn clones_share_and_compare_equal() {
        let t = sample();
        let f = t.share_root();
        let g = f.clone();
        assert!(f.shares_arena_with(&g));
        assert_eq!(f, g);
        // equality also holds across distinct arenas
        let h = f.deep_copy().share_root();
        assert!(!f.shares_arena_with(&h));
        assert_eq!(f, h);
    }

    #[test]
    fn to_tree_is_cow_isolated() {
        let t = sample();
        let f = t.share_root();
        let before = f.serialize();
        let mut promoted = f.to_tree();
        let r = promoted.root();
        promoted.add_element(r, "extra");
        // the frag (and the original tree) are untouched
        assert_eq!(f.serialize(), before);
        assert_eq!(t.serialize(), before);
        assert!(promoted.serialize().contains("<extra/>"));
    }

    #[test]
    fn text_rooted_frag() {
        let mut t = Tree::new("a");
        let r = t.root();
        let txt = t.add_text(r, "hello");
        let f = t.share(txt).unwrap();
        assert!(f.label().is_none());
        assert_eq!(f.serialize(), "hello");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn graft_frag_counts_one_copy() {
        use crate::stats::CopyStats;
        let t = sample();
        let f = t.share_root();
        let s0 = CopyStats::snapshot();
        let mut dst = Tree::new("mirror");
        let r = dst.root();
        dst.graft_frag(r, &f).unwrap();
        // Counters are process-wide, so parallel tests may add to the
        // delta; assert the monotone lower bound only (sample has 4 nodes).
        let d = CopyStats::snapshot().delta_since(&s0);
        assert!(d.nodes_copied >= 4, "nodes_copied = {}", d.nodes_copied);
        assert!(d.bytes_copied > 0);
    }
}
