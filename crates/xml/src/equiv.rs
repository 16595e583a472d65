//! Unordered deep-equivalence of trees and canonical hashing.
//!
//! The AXML model treats trees as **unordered** (§2.1), and the paper's
//! generic documents (§2.3) are *equivalence classes* of documents. The
//! full AXML equivalence of [Abiteboul, Milo, Benjelloun — PODS'04] is
//! behavioural (equal fix-points under call activation); its structural
//! base case — used here and extended behaviourally in `axml-core` — is
//! equality of trees up to sibling reordering.
//!
//! We decide it by computing a **canonical form**: attributes sorted by
//! name, children recursively canonicalized and sorted under a total
//! order. Two trees are equivalent iff their canonical forms are equal;
//! the canonical hash is the hash of that form.

use crate::symbol::Label;
use crate::tree::{NodeId, NodeKind, Tree};
use std::collections::hash_map::{DefaultHasher, HashMap};
use std::hash::{Hash, Hasher};

/// The canonical (order-normalized) form of a subtree.
///
/// `Canon` has a derived total order, which is what makes child sorting —
/// and therefore equivalence — well-defined.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Canon {
    /// A text leaf.
    Text(String),
    /// An element with sorted attributes and sorted canonical children.
    Elem {
        /// Element label.
        label: Label,
        /// Attributes sorted by name.
        attrs: Vec<(Label, String)>,
        /// Children in canonical order.
        children: Vec<Canon>,
    },
}

/// Compute the canonical form of the subtree of `tree` rooted at `node`.
pub fn canonicalize(tree: &Tree, node: NodeId) -> Canon {
    match &tree.node(node).kind() {
        NodeKind::Text(t) => Canon::Text(t.clone()),
        NodeKind::Element { label, attrs } => {
            let mut attrs = attrs.clone();
            attrs.sort();
            let mut children: Vec<Canon> = tree
                .children(node)
                .iter()
                .map(|&c| canonicalize(tree, c))
                .collect();
            children.sort();
            Canon::Elem {
                label: *label,
                attrs,
                children,
            }
        }
    }
}

/// A grow-only multiset of trees up to equivalence: what an append-only
/// stream (§2.2 — answers accumulate, none is retracted) has delivered so
/// far, and so the one place that decides which trees of a re-evaluated
/// result are new.
#[derive(Debug, Clone, Default)]
pub struct CanonMultiset {
    copies: HashMap<Canon, Copies>,
    /// Sum of every tree's delivered copies.
    delivered: usize,
}

/// Per tree: copies delivered so far, and copies seen in the batch that
/// [`CanonMultiset::admit`] is looking at.
#[derive(Debug, Clone, Copy, Default)]
struct Copies {
    delivered: usize,
    batch: usize,
}

impl CanonMultiset {
    fn copies(&mut self, tree: &Tree, node: NodeId) -> &mut Copies {
        self.copies.entry(canonicalize(tree, node)).or_default()
    }

    /// The multiset of `parent`'s children.
    pub fn of_children(tree: &Tree, parent: NodeId) -> Self {
        let mut set = Self::default();
        for &c in tree.children(parent) {
            set.copies(tree, c).delivered += 1;
        }
        set.delivered = tree.children(parent).len();
        set
    }

    /// How many trees the multiset holds, copies counted. After
    /// [`CanonMultiset::admit`] this equals the admitted batch's length
    /// exactly when the multiset *is* that batch — nothing delivered
    /// earlier is missing from it.
    pub fn delivered(&self) -> usize {
        self.delivered
    }

    /// Count every tree of `trees` as delivered (the caller knows they
    /// are new — the semi-naive path).
    pub fn record(&mut self, trees: &[Tree]) {
        for t in trees {
            self.copies(t, t.root()).delivered += 1;
        }
        self.delivered += trees.len();
    }

    /// Take back one delivered copy of every tree of `trees` — for trees
    /// [`CanonMultiset::record`] or [`CanonMultiset::admit`] just counted
    /// whose delivery then failed, so that they are new again next time.
    pub fn retract(&mut self, trees: &[Tree]) {
        for t in trees {
            let c = self.copies(t, t.root());
            if c.delivered > 0 {
                c.delivered -= 1;
                self.delivered -= 1;
            }
        }
    }

    /// The multiset difference `results ∖ self`, in result order: the
    /// `k`-th copy of a tree within this batch is new iff fewer than `k`
    /// copies were delivered before. Everything let through counts as
    /// delivered from then on.
    pub fn admit(&mut self, mut results: Vec<Tree>) -> Vec<Tree> {
        self.copies.values_mut().for_each(|c| c.batch = 0);
        results.retain(|t| {
            let c = self.copies(t, t.root());
            c.batch += 1;
            let fresh = c.batch > c.delivered;
            c.delivered = c.delivered.max(c.batch);
            fresh
        });
        self.delivered += results.len();
        results
    }
}

/// Unordered deep-equivalence of two subtrees (possibly from different
/// trees): equal labels, equal attribute sets, and equal *multisets* of
/// equivalent children.
pub fn tree_equiv(a: &Tree, na: NodeId, b: &Tree, nb: NodeId) -> bool {
    canonicalize(a, na) == canonicalize(b, nb)
}

/// Equivalence of whole trees.
pub fn whole_tree_equiv(a: &Tree, b: &Tree) -> bool {
    tree_equiv(a, a.root(), b, b.root())
}

/// Equivalence of two *forests* (multisets of trees) — used for comparing
/// query results and stream contents, where arrival order is non-semantic.
pub fn forest_equiv(a: &[Tree], b: &[Tree]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut ca: Vec<Canon> = a.iter().map(|t| canonicalize(t, t.root())).collect();
    let mut cb: Vec<Canon> = b.iter().map(|t| canonicalize(t, t.root())).collect();
    ca.sort();
    cb.sort();
    ca == cb
}

/// A 64-bit canonical hash: equivalent trees always hash equal.
pub fn canonical_hash(tree: &Tree, node: NodeId) -> u64 {
    let mut h = DefaultHasher::new();
    canonicalize(tree, node).hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sibling_order_irrelevant() {
        let a = Tree::parse("<r><x/><y/><z>1</z></r>").unwrap();
        let b = Tree::parse("<r><z>1</z><x/><y/></r>").unwrap();
        assert!(whole_tree_equiv(&a, &b));
        assert_eq!(canonical_hash(&a, a.root()), canonical_hash(&b, b.root()));
    }

    #[test]
    fn attribute_order_irrelevant() {
        let a = Tree::parse(r#"<r a="1" b="2"/>"#).unwrap();
        let b = Tree::parse(r#"<r b="2" a="1"/>"#).unwrap();
        assert!(whole_tree_equiv(&a, &b));
    }

    #[test]
    fn multiset_semantics() {
        // <r><x/><x/></r> has TWO x children; not equivalent to one.
        let two = Tree::parse("<r><x/><x/></r>").unwrap();
        let one = Tree::parse("<r><x/></r>").unwrap();
        assert!(!whole_tree_equiv(&two, &one));
    }

    #[test]
    fn differing_text_differs() {
        let a = Tree::parse("<r><v>1</v></r>").unwrap();
        let b = Tree::parse("<r><v>2</v></r>").unwrap();
        assert!(!whole_tree_equiv(&a, &b));
    }

    #[test]
    fn differing_attr_value_differs() {
        let a = Tree::parse(r#"<r k="1"/>"#).unwrap();
        let b = Tree::parse(r#"<r k="2"/>"#).unwrap();
        assert!(!whole_tree_equiv(&a, &b));
    }

    #[test]
    fn nested_reordering() {
        let a = Tree::parse("<r><g><a/><b/></g><g><c/><d/></g></r>").unwrap();
        let b = Tree::parse("<r><g><d/><c/></g><g><b/><a/></g></r>").unwrap();
        assert!(whole_tree_equiv(&a, &b));
    }

    #[test]
    fn subtree_equiv_across_trees() {
        let a = Tree::parse("<r><pkg><v>1</v><n>vim</n></pkg></r>").unwrap();
        let b = Tree::parse("<other><pkg><n>vim</n><v>1</v></pkg></other>").unwrap();
        let pa = a.first_child_labeled(a.root(), "pkg").unwrap();
        let pb = b.first_child_labeled(b.root(), "pkg").unwrap();
        assert!(tree_equiv(&a, pa, &b, pb));
        assert!(!tree_equiv(&a, a.root(), &b, b.root()));
    }

    #[test]
    fn multiset_counts_and_takes_back() {
        let t = |xml: &str| Tree::parse(xml).unwrap();
        let (a, a_flipped, b) = (t("<r><x/><y/></r>"), t("<r><y/><x/></r>"), t("<b/>"));
        let mut set = CanonMultiset::default();
        assert_eq!(set.admit(vec![a.clone(), b.clone()]).len(), 2);
        assert_eq!(set.delivered(), 2);
        // one more copy of `a` (up to sibling order) is new, `b` is not
        let fresh = set.admit(vec![a.clone(), b.clone(), a_flipped.clone()]);
        assert_eq!(fresh.len(), 1);
        assert_eq!(set.delivered(), 3);
        // its delivery failed: it is new again, and again only once
        set.retract(&fresh);
        assert_eq!(set.delivered(), 2);
        let again = set.admit(vec![a.clone(), b.clone(), a_flipped]);
        assert_eq!(again.len(), 1);
        // a batch that lacks something delivered earlier is not the multiset
        assert!(set.admit(vec![b]).is_empty());
        assert_eq!(set.delivered(), 3, "more than the batch's one tree");
        set.record(&[a]);
        assert_eq!(set.delivered(), 4);
    }

    #[test]
    fn forest_equiv_is_multiset() {
        let t1 = Tree::parse("<a/>").unwrap();
        let t2 = Tree::parse("<b/>").unwrap();
        assert!(forest_equiv(
            &[t1.clone(), t2.clone()],
            &[t2.clone(), t1.clone()]
        ));
        assert!(!forest_equiv(&[t1.clone(), t1.clone()], &[t1.clone(), t2]));
        assert!(!forest_equiv(std::slice::from_ref(&t1), &[]));
        assert!(forest_equiv(&[], &[]));
    }
}
