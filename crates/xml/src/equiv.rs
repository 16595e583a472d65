//! Unordered deep-equivalence of trees, and the one canonical walk that
//! decides it.
//!
//! The AXML model treats trees as **unordered** (§2.1), and the paper's
//! generic documents (§2.3) are *equivalence classes* of documents. The
//! full AXML equivalence of [Abiteboul, Milo, Benjelloun — PODS'04] is
//! behavioural (equal fix-points under call activation); its structural
//! base case — used here and extended behaviourally in `axml-core` — is
//! equality of trees up to sibling reordering.
//!
//! ## One walk
//!
//! A tree's *canonical form* is the tree with every element's attributes
//! and children sorted, the children canonical themselves; two trees are
//! equivalent iff their forms are equal. One walk names a form by 128 bits
//! without building it. A text leaf digests its bytes; an attribute its
//! name and value; an element its label, then the digests of its
//! attributes, sorted and count-prefixed, then those of its children,
//! sorted and count-prefixed. Each of the three starts with a tag of its
//! own and every string goes in length-prefixed, byte by byte from its
//! text (never through a [`Label`](crate::symbol::Label)'s 64-bit content
//! hash, which two labels may share), so the input sequence spells the
//! canonical form exactly: two forms are equal iff their sequences are.
//! The sequence is absorbed into two 64-bit lanes, each step a bijection
//! of the lane (xor, odd multiply, xor-shift), with a bijective cross-lane
//! finish. Treating that as a random function, two different canonical
//! forms share a digest with probability 2⁻¹²⁸ per pair — a set of `n`
//! forms holds a colliding pair with probability below `n² · 2⁻¹²⁹`.
//! The walk is iterative (a chain of any depth is digested on a heap
//! stack, not the call stack), and allocates nothing until a subtree is
//! deeper than 16 elements or keeps more than 32 digests pending.
//!
//! ## Two keys
//!
//! The lanes start from a key, and the walk runs under one of two:
//!
//! - **The per-process key** ([`canonical_digest`]), drawn once per
//!   process from `RandomState`. Everything that compares trees inside a
//!   process uses it: the delta filter [`CanonMultiset`] every
//!   subscription consults per result, [`tree_equiv`], [`forest_equiv`],
//!   and `axml-core`'s Σ snapshots and replica check. The mix is not
//!   cryptographic and peers send the trees it digests, so a key they
//!   cannot know keeps a peer from working out offline two trees that
//!   collide — the second of which a subscriber holding the first would
//!   never be sent. Such a digest never leaves the process or decides an
//!   order, so no result depends on the key. The same secrecy lets
//!   [`CanonMultiset`]'s map hash a digest by folding it (xoring its two
//!   halves) instead of hashing it again. A `std` map SipHashes its keys
//!   so that whoever chooses them cannot pile many into one bucket. Here
//!   a peer chooses trees, and the bucket a tree lands in is read off a
//!   digest under a key the peer never sees: it cannot tell which trees
//!   would share one, so it cannot aim. The finish mixes each half
//!   fully, so their xor is as evenly spread as either: in the low bits
//!   that pick a bucket and in the top seven a probe compares first.
//! - **The fixed key** ([`canonical_hash`], folded to 64 bits), a
//!   constant. It names a tree on the wire — the `ref` of a fetch request —
//!   so it must be the same in every process and on every toolchain, which
//!   a constant key and a walk that reads label bytes guarantee (a
//!   `std` hasher promises neither). It only names: nothing is looked up
//!   or filtered by it.

use crate::small::Small;
use crate::tree::{NodeId, NodeKind, Tree};
use std::collections::hash_map::{HashMap, RandomState};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// Domain tags: what a digest is the digest of.
const TEXT: u64 = 1;
const ATTR: u64 = 2;
const ELEM: u64 = 3;

/// What the two lanes start from (see the module docs' two keys).
type Key = (u64, u64);

/// The per-process key, drawn on first use.
fn process_key() -> Key {
    static KEY: OnceLock<Key> = OnceLock::new();
    *KEY.get_or_init(|| {
        let keys = RandomState::new();
        (keys.hash_one(0u8), keys.hash_one(1u8))
    })
}

/// The fixed key: the first 128 bits of π's fraction.
const WIRE_KEY: Key = (0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344);

/// Two 64-bit lanes absorbing a sequence of words (see the module docs).
struct Mix {
    a: u64,
    b: u64,
}

impl Mix {
    fn new((a, b): Key, tag: u64) -> Self {
        let mut m = Mix { a, b };
        m.word(tag);
        m
    }

    /// One step per lane; for a given `w` each is a bijection of the lane.
    fn word(&mut self, w: u64) {
        let a = (self.a ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.a = a ^ (a >> 32);
        let b = (self.b ^ w).wrapping_mul(0xd6e8_feb8_6659_fd93);
        self.b = b ^ (b >> 29);
    }

    /// `s`, length-prefixed, one byte per step.
    fn bytes(&mut self, s: &str) {
        self.word(s.len() as u64);
        for &byte in s.as_bytes() {
            self.word(byte as u64);
        }
    }

    /// `digests`, count-prefixed, in the order given.
    fn digests(&mut self, digests: &[u128]) {
        self.word(digests.len() as u64);
        for &d in digests {
            self.word((d >> 64) as u64);
            self.word(d as u64);
        }
    }

    /// Murmur3's 64-bit finalizer on each lane, the second lane taking
    /// the first's result: invertible, so the finish loses nothing.
    fn finish(self) -> u128 {
        fn fmix(mut x: u64) -> u64 {
            x ^= x >> 33;
            x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
            x ^= x >> 33;
            x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            x ^ (x >> 33)
        }
        let hi = fmix(self.a ^ self.b.rotate_left(32));
        let lo = fmix(self.b.wrapping_add(hi));
        ((hi as u128) << 64) | lo as u128
    }
}

fn text_digest(key: Key, text: &str) -> u128 {
    let mut m = Mix::new(key, TEXT);
    m.bytes(text);
    m.finish()
}

/// A 128-bit digest of the canonical form of the subtree of `tree` rooted
/// at `node`: equal for equivalent subtrees, and different for different
/// ones except with probability 2⁻¹²⁸ per pair (see the module docs for
/// what it hashes and what that bound assumes). Under the per-process
/// key, so compare digests only within one process. Allocation-free and
/// iterative on small trees, on the heap but still iterative on deep ones.
pub fn canonical_digest(tree: &Tree, node: NodeId) -> u128 {
    digest(process_key(), tree, node)
}

/// A 64-bit canonical hash: equivalent trees always hash equal. The walk
/// of [`canonical_digest`] under the fixed key, its two halves xored: the
/// same value in every process and on every toolchain, so it can name a
/// tree on the wire.
pub fn canonical_hash(tree: &Tree, node: NodeId) -> u64 {
    let d = digest(WIRE_KEY, tree, node);
    (d >> 64) as u64 ^ d as u64
}

/// The canonical walk under `key`.
fn digest(key: Key, tree: &Tree, node: NodeId) -> u128 {
    if let NodeKind::Text(t) = tree.node(node).kind() {
        return text_digest(key, t);
    }
    // The open elements, each with the index of its next child, and the
    // digests of the children they have finished so far.
    let mut open: Small<(NodeId, usize), 16> = Small::new((node, 0));
    let mut digests: Small<u128, 32> = Small::new(0);
    open.push((node, 0));
    loop {
        let (element, next) = open.items().last_mut().expect("the walk's root is open");
        let children = tree.children(*element);
        if let Some(&child) = children.get(*next) {
            *next += 1;
            match tree.node(child).kind() {
                NodeKind::Text(t) => digests.push(text_digest(key, t)),
                NodeKind::Element { .. } => open.push((child, 0)),
            }
            continue;
        }
        // Every child is digested: the element's digest replaces theirs.
        let NodeKind::Element { label, attrs } = tree.node(*element).kind() else {
            unreachable!("only elements are opened");
        };
        let depth = open.items().len() - 1;
        open.truncate(depth);
        let base = digests.items().len() - children.len();
        for (name, value) in attrs {
            let mut m = Mix::new(key, ATTR);
            m.bytes(name.as_str());
            m.bytes(value);
            digests.push(m.finish());
        }
        let (kids, attrs) = digests.items()[base..].split_at_mut(children.len());
        kids.sort_unstable();
        attrs.sort_unstable();
        let mut m = Mix::new(key, ELEM);
        m.bytes(label.as_str());
        m.digests(attrs);
        m.digests(kids);
        let digest = m.finish();
        if depth == 0 {
            return digest;
        }
        digests.truncate(base);
        digests.push(digest);
    }
}

/// Hashes a [`canonical_digest`] by folding it: the map key is already a
/// keyed, evenly spread 128-bit value (see the module docs' two keys).
#[derive(Clone, Default)]
struct FoldDigest;

impl BuildHasher for FoldDigest {
    type Hasher = Folded;

    fn build_hasher(&self) -> Folded {
        Folded(0)
    }
}

/// The state of [`FoldDigest`]: the folded digest.
struct Folded(u64);

impl Hasher for Folded {
    fn write_u128(&mut self, digest: u128) {
        self.0 ^= (digest >> 64) as u64 ^ digest as u64;
    }

    /// Not reached by a `u128` key; any other input is mixed byte by byte.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A grow-only multiset of trees up to equivalence: what an append-only
/// stream (§2.2 — answers accumulate, none is retracted) has delivered so
/// far, and so the one place that decides which trees of a re-evaluated
/// result are new. Trees are counted under their [`canonical_digest`], so
/// the set holds 128 bits per distinct tree, not the tree.
#[derive(Debug, Clone, Default)]
pub struct CanonMultiset {
    copies: HashMap<u128, Copies, FoldDigest>,
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
        self.copies.entry(canonical_digest(tree, node)).or_default()
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

    /// [`CanonMultiset::record`] of the trees whose [`canonical_digest`]s
    /// these are, for a caller that digested them already: it walks no
    /// tree, and allocates nothing for a digest the set holds.
    pub fn record_digests(&mut self, digests: &[u128]) {
        for &d in digests {
            self.copies.entry(d).or_default().delivered += 1;
        }
        self.delivered += digests.len();
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
    pub fn admit(&mut self, results: Vec<Tree>) -> Vec<Tree> {
        self.admit_by(results, |t| canonical_digest(t, t.root()))
    }

    /// [`CanonMultiset::admit`] of results whose [`canonical_digest`]s
    /// are `digests`, in result order, for a caller that digested them
    /// already: it walks no tree.
    pub fn admit_digests(&mut self, results: Vec<Tree>, digests: &[u128]) -> Vec<Tree> {
        assert_eq!(results.len(), digests.len(), "a digest per result");
        let mut digests = digests.iter();
        self.admit_by(results, |_| *digests.next().expect("a digest per result"))
    }

    /// `admit`, each result counted under `digest(result)`; `retain`
    /// visits the results once each, in order.
    fn admit_by(
        &mut self,
        mut results: Vec<Tree>,
        mut digest: impl FnMut(&Tree) -> u128,
    ) -> Vec<Tree> {
        self.copies.values_mut().for_each(|c| c.batch = 0);
        results.retain(|t| {
            let c = self.copies.entry(digest(t)).or_default();
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
/// equivalent children — equal [`canonical_digest`]s.
pub fn tree_equiv(a: &Tree, na: NodeId, b: &Tree, nb: NodeId) -> bool {
    canonical_digest(a, na) == canonical_digest(b, nb)
}

/// Equivalence of whole trees.
pub fn whole_tree_equiv(a: &Tree, b: &Tree) -> bool {
    tree_equiv(a, a.root(), b, b.root())
}

/// Equivalence of two *forests* (multisets of trees) — used for comparing
/// query results and stream contents, where arrival order is non-semantic.
pub fn forest_equiv(a: &[Tree], b: &[Tree]) -> bool {
    let sorted = |f: &[Tree]| {
        let mut digests: Vec<u128> = f.iter().map(|t| canonical_digest(t, t.root())).collect();
        digests.sort_unstable();
        digests
    };
    a.len() == b.len() && sorted(a) == sorted(b)
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
        assert_eq!(
            canonical_digest(&a, a.root()),
            canonical_digest(&b, b.root())
        );
    }

    #[test]
    fn the_canonical_hash_is_pinned() {
        // A test binary is a process of its own, with its own per-process
        // key and interning order: literals that hold here hold in all.
        let hash = |xml: &str| {
            let t = Tree::parse(xml).unwrap();
            canonical_hash(&t, t.root())
        };
        assert_eq!(hash("<a/>"), 0xc98b_58fe_abd0_4e07);
        assert_eq!(
            hash(r#"<pkg name="vim"><size>4000</size></pkg>"#),
            0xf2d9_c329_8101_68b7
        );
        assert_eq!(hash("<r><x/><y>1</y></r>"), 0x9806_1a30_0064_71f1);
        assert_eq!(hash("<r><y>1</y><x/></r>"), 0x9806_1a30_0064_71f1);
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
