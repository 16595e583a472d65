//! Property-based tests for the XML substrate: parser/serializer
//! round-trips, equivalence-relation laws, size accounting, and the
//! canonical walk against the canonical form it names.

use axml_prng::SplitMix64;
use axml_xml::equiv::{
    canonical_digest, canonical_hash, forest_equiv, tree_equiv, whole_tree_equiv, CanonMultiset,
};
use axml_xml::symbol::Label;
use axml_xml::tree::{NodeId, NodeKind, Tree};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// The canonical form of a subtree, built: the oracle the canonical walk
/// is checked against. Its derived total order is what makes sorting the
/// children — and so the form — well-defined.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Canon {
    Text(Arc<str>),
    Elem {
        label: Label,
        attrs: Vec<(Label, Arc<str>)>,
        children: Vec<Canon>,
    },
}

fn canonicalize(tree: &Tree, node: NodeId) -> Canon {
    match tree.node(node).kind() {
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

/// A recursive strategy generating arbitrary small trees.
fn arb_tree() -> impl Strategy<Value = Tree> {
    arb_node().prop_map(|spec| {
        let mut t = Tree::new(spec.label.as_str());
        let root = t.root();
        build(&mut t, root, &spec);
        t
    })
}

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

fn arb_text() -> impl Strategy<Value = String> {
    // Includes XML-special characters to exercise escaping.
    proptest::collection::vec(
        prop_oneof![
            Just('&'),
            Just('<'),
            Just('>'),
            Just('"'),
            Just('\''),
            proptest::char::range('a', 'z'),
            proptest::char::range('A', 'Z'),
            Just(' '),
            Just('é'),
        ],
        1..12,
    )
    .prop_map(|cs| cs.into_iter().collect())
    .prop_filter("parser drops whitespace-only text", |s: &String| {
        !s.trim().is_empty()
    })
}

fn arb_node() -> impl Strategy<Value = NodeSpec> {
    let leaf = (
        arb_label(),
        proptest::collection::vec((arb_label(), arb_text()), 0..3),
        proptest::option::of(arb_text()),
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
            proptest::collection::vec((arb_label(), arb_text()), 0..3),
            proptest::option::of(arb_text()),
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
    if let Some(text) = &spec.text {
        t.add_text(at, text.clone());
    }
    for c in &spec.children {
        let el = t.add_element(at, c.label.as_str());
        build(t, el, c);
    }
}

/// Reverse the order of all children, recursively, producing a sibling
/// permutation of the input.
fn reversed(t: &Tree) -> Tree {
    fn rec(src: &Tree, s: NodeId, dst: &mut Tree, d: NodeId) {
        for (k, v) in src.attrs(s) {
            dst.set_attr(d, *k, v.clone()).unwrap();
        }
        for &c in src.children(s).iter().rev() {
            match src.node(c).as_text() {
                Some(txt) => {
                    dst.add_text(d, txt);
                }
                None => {
                    let el = dst.add_element(d, src.label(c).unwrap());
                    rec(src, c, dst, el);
                }
            }
        }
    }
    let mut out = Tree::new(t.label(t.root()).unwrap());
    let root = out.root();
    rec(t, t.root(), &mut out, root);
    out
}

proptest! {
    /// parse ∘ serialize = identity (up to the canonical form).
    #[test]
    fn parse_serialize_roundtrip(t in arb_tree()) {
        let text = t.serialize();
        let back = Tree::parse(&text).expect("serializer output must parse");
        prop_assert!(whole_tree_equiv(&t, &back), "roundtrip broke: {text}");
        // And byte-exact: serialization is deterministic on the same tree.
        prop_assert_eq!(back.serialize(), text);
    }

    /// Pretty output parses back to the same tree (whitespace dropping).
    #[test]
    fn pretty_roundtrip(t in arb_tree()) {
        let back = Tree::parse(&t.pretty()).expect("pretty output must parse");
        prop_assert!(whole_tree_equiv(&t, &back));
    }

    /// serialized_size never lies.
    #[test]
    fn size_accounting_exact(t in arb_tree()) {
        prop_assert_eq!(t.serialized_size(), t.serialize().len());
    }

    /// Equivalence is invariant under sibling permutation, and the
    /// canonical hash respects it.
    #[test]
    fn equiv_under_permutation(t in arb_tree()) {
        let r = reversed(&t);
        prop_assert!(whole_tree_equiv(&t, &r));
        prop_assert_eq!(canonical_hash(&t, t.root()), canonical_hash(&r, r.root()));
    }

    /// Equivalence is reflexive and symmetric.
    #[test]
    fn equiv_laws(a in arb_tree(), b in arb_tree()) {
        prop_assert!(whole_tree_equiv(&a, &a));
        prop_assert_eq!(whole_tree_equiv(&a, &b), whole_tree_equiv(&b, &a));
    }

    /// Grafting a subtree then viewing it on its own preserves equivalence.
    #[test]
    fn graft_roundtrip(t in arb_tree()) {
        let mut host = Tree::new("host");
        let hr = host.root();
        let grafted = host.graft(hr, &t, t.root()).unwrap();
        prop_assert!(tree_equiv(&host, grafted, &t, t.root()));
        let back = host.subtree(grafted).unwrap();
        prop_assert!(whole_tree_equiv(&back, &t));
    }

    /// Forest equivalence is permutation-invariant.
    #[test]
    fn forest_permutation(ts in proptest::collection::vec(arb_tree(), 0..4)) {
        let mut rev = ts.clone();
        rev.reverse();
        prop_assert!(forest_equiv(&ts, &rev));
    }
}

proptest! {
    /// The parser never panics, whatever bytes it is fed — it either
    /// produces a tree or a positioned error.
    #[test]
    fn parser_never_panics(input in "\\PC*") {
        let _ = Tree::parse(&input);
    }

    /// XML-ish garbage (angle brackets, quotes, entities in random
    /// arrangements) also never panics and never produces a tree that
    /// fails to re-serialize.
    #[test]
    fn parser_total_on_xmlish_soup(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("<".to_string()), Just(">".to_string()), Just("/".to_string()),
                Just("=".to_string()), Just("\"".to_string()), Just("'".to_string()),
                Just("&".to_string()), Just(";".to_string()), Just("<!--".to_string()),
                Just("-->".to_string()), Just("<![CDATA[".to_string()), Just("]]>".to_string()),
                Just("a".to_string()), Just("bc".to_string()), Just(" ".to_string()),
                Just("&amp;".to_string()), Just("<a>".to_string()), Just("</a>".to_string()),
            ],
            0..24,
        )
    ) {
        let input: String = parts.concat();
        if let Ok(t) = Tree::parse(&input) {
            // anything that parses must round-trip
            let again = Tree::parse(&t.serialize()).unwrap();
            prop_assert!(whole_tree_equiv(&t, &again));
        }
    }
}

/// Copies a tree with every element's attributes and children shuffled
/// and, if asked, one string changed: the `edit`-th of its labels,
/// attribute names, attribute values and texts, counted as they are
/// copied.
struct Mutator {
    rng: SplitMix64,
    edit: Option<usize>,
    seen: usize,
}

impl Mutator {
    fn string(&mut self, s: &str) -> String {
        let k = self.seen;
        self.seen += 1;
        if self.edit != Some(k) {
            return s.to_string();
        }
        let mut chars: Vec<char> = s.chars().collect();
        if chars.is_empty() {
            return "q".to_string();
        }
        let at = self.rng.gen_range(0..chars.len());
        chars[at] = if chars[at] == 'q' { 'r' } else { 'q' };
        chars.into_iter().collect()
    }

    fn copy(&mut self, t: &Tree) -> Tree {
        let label = self.string(t.label(t.root()).unwrap().as_str());
        let mut out = Tree::new(label.as_str());
        let root = out.root();
        self.copy_below(t, t.root(), &mut out, root);
        out
    }

    fn copy_below(&mut self, src: &Tree, s: NodeId, dst: &mut Tree, d: NodeId) {
        let mut attrs = src.attrs(s).to_vec();
        self.rng.shuffle(&mut attrs);
        for (k, v) in attrs {
            let (k, v) = (self.string(k.as_str()), self.string(&v));
            dst.set_attr(d, k.as_str(), v).unwrap();
        }
        let mut children = src.children(s).to_vec();
        self.rng.shuffle(&mut children);
        for c in children {
            match src.node(c).as_text() {
                Some(text) => {
                    let text = self.string(text);
                    dst.add_text(d, text);
                }
                None => {
                    let label = self.string(src.label(c).unwrap().as_str());
                    let el = dst.add_element(d, label.as_str());
                    self.copy_below(src, c, dst, el);
                }
            }
        }
    }
}

/// How many strings [`Mutator::copy`] may edit in `t`.
fn strings(t: &Tree) -> usize {
    let count = |n: NodeId| match t.node(n).as_text() {
        Some(_) => 1,
        None => 1 + 2 * t.attrs(n).len(),
    };
    t.descendants_with_self(t.root()).map(count).sum()
}

/// `t` with its siblings and attributes shuffled at every depth, and one
/// of its strings changed by one character if `edit`.
fn mutant(t: &Tree, rng: &mut SplitMix64, edit: bool) -> Tree {
    let edit = edit.then(|| rng.gen_range(0..strings(t)));
    let mut m = Mutator {
        rng: rng.split(),
        edit,
        seen: 0,
    };
    m.copy(t)
}

/// Every subtree of `t`, with its canonical form.
fn subtrees(t: &Tree) -> Vec<(&Tree, NodeId, Canon)> {
    let form = |n| (t, n, canonicalize(t, n));
    t.descendants_with_self(t.root()).map(form).collect()
}

/// The parent's delta filter, keyed by whole canonical forms: the oracle
/// the digest-keyed [`CanonMultiset`] must answer exactly like.
#[derive(Default)]
struct CanonKeyed {
    /// Per form: copies delivered, copies in the batch being admitted.
    copies: HashMap<Canon, (usize, usize)>,
    delivered: usize,
}

impl CanonKeyed {
    fn copies(&mut self, tree: &Tree, node: NodeId) -> &mut (usize, usize) {
        self.copies.entry(canonicalize(tree, node)).or_default()
    }

    fn of_children(tree: &Tree, parent: NodeId) -> Self {
        let mut set = Self::default();
        for &c in tree.children(parent) {
            set.copies(tree, c).0 += 1;
        }
        set.delivered = tree.children(parent).len();
        set
    }

    fn record(&mut self, trees: &[Tree]) {
        for t in trees {
            self.copies(t, t.root()).0 += 1;
        }
        self.delivered += trees.len();
    }

    fn retract(&mut self, trees: &[Tree]) {
        for t in trees {
            let c = self.copies(t, t.root());
            if c.0 > 0 {
                c.0 -= 1;
                self.delivered -= 1;
            }
        }
    }

    fn admit(&mut self, mut results: Vec<Tree>) -> Vec<Tree> {
        self.copies.values_mut().for_each(|c| c.1 = 0);
        results.retain(|t| {
            let c = self.copies(t, t.root());
            c.1 += 1;
            let fresh = c.1 > c.0;
            c.0 = c.0.max(c.1);
            fresh
        });
        self.delivered += results.len();
        results
    }
}

/// Builds the named near-misses below out of text and element children,
/// which the parser alone cannot (it merges adjacent texts and drops an
/// empty one).
fn r_with(children: &[Result<&str, &str>]) -> Tree {
    let mut t = Tree::new("r");
    let r = t.root();
    for c in children {
        match c {
            Ok(text) => t.add_text(r, *text),
            Err(label) => t.add_element(r, *label),
        };
    }
    t
}

#[test]
fn the_digest_tells_near_misses_apart() {
    let xml = |s: &str| Tree::parse(s).unwrap();
    let pairs = [
        (
            "one text `ab` vs two",
            r_with(&[Ok("ab")]),
            r_with(&[Ok("a"), Ok("b")]),
        ),
        ("an empty text vs none", r_with(&[Ok("")]), r_with(&[])),
        (
            "swapped name and value",
            xml(r#"<r a="b"/>"#),
            xml(r#"<r b="a"/>"#),
        ),
        (
            "name and value split",
            xml(r#"<r ab="c"/>"#),
            xml(r#"<r a="bc"/>"#),
        ),
        (
            "attribute vs child",
            xml(r#"<r k="v"/>"#),
            xml("<r><k>v</k></r>"),
        ),
        ("text vs element", r_with(&[Ok("x")]), r_with(&[Err("x")])),
        (
            "two copies vs one",
            xml("<r><a/><a/></r>"),
            xml("<r><a/></r>"),
        ),
        (
            "nested vs siblings",
            xml("<r><a><b/></a></r>"),
            xml("<r><a/><b/></r>"),
        ),
    ];
    for (what, a, b) in pairs {
        assert_ne!(
            canonicalize(&a, a.root()),
            canonicalize(&b, b.root()),
            "{what}"
        );
        let digest = |t: &Tree| canonical_digest(t, t.root());
        assert_ne!(digest(&a), digest(&b), "{what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Two subtrees have one digest, are `tree_equiv` and have one
    /// canonical hash each exactly when they have one canonical form —
    /// over a tree, a copy of it shuffled at every depth, and a shuffled
    /// copy with one character of a label, name, value or text changed,
    /// every subtree of each against every subtree of the others.
    #[test]
    fn the_digest_is_the_canonical_form(t in arb_tree(), seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let (shuffled, edited) = (mutant(&t, &mut rng, false), mutant(&t, &mut rng, true));
        prop_assert_eq!(canonical_digest(&t, t.root()), canonical_digest(&shuffled, shuffled.root()));
        let all: Vec<_> = [&t, &shuffled, &edited].into_iter().flat_map(subtrees).collect();
        for (a, na, ca) in &all {
            for (b, nb, cb) in &all {
                let same = ca == cb;
                prop_assert_eq!(canonical_digest(a, *na) == canonical_digest(b, *nb), same, "{:?} vs {:?}", ca, cb);
                prop_assert_eq!(tree_equiv(a, *na, b, *nb), same, "{:?} vs {:?}", ca, cb);
                prop_assert_eq!(canonical_hash(a, *na) == canonical_hash(b, *nb), same, "{:?} vs {:?}", ca, cb);
            }
        }
    }

    /// Two forests are `forest_equiv` exactly when their sorted canonical
    /// forms are equal — forests drawn from a tree, a shuffled copy and a
    /// near miss, so that both answers come up.
    #[test]
    fn forest_equiv_is_the_sorted_canonical_forms(
        t in arb_tree(),
        seed in any::<u64>(),
        left in proptest::collection::vec(0usize..3, 0..4),
        right in proptest::collection::vec(0usize..3, 0..4),
    ) {
        let mut rng = SplitMix64::new(seed);
        let pool = [t.clone(), mutant(&t, &mut rng, false), mutant(&t, &mut rng, true)];
        let forest = |picks: &[usize]| picks.iter().map(|&i| pool[i].clone()).collect::<Vec<_>>();
        let sorted = |f: &[Tree]| {
            let mut forms: Vec<Canon> = f.iter().map(|t| canonicalize(t, t.root())).collect();
            forms.sort();
            forms
        };
        let (a, b) = (forest(&left), forest(&right));
        prop_assert_eq!(forest_equiv(&a, &b), sorted(&a) == sorted(&b));
    }

    /// The digest-keyed multiset answers random `record` / `admit` /
    /// `retract` / `of_children` sequences exactly as the `Canon`-keyed
    /// one did: the same trees in the same order, the same counts —
    /// over a pool of trees, their shuffled copies and near misses.
    #[test]
    fn the_multiset_answers_as_the_canon_keyed_one(
        base in proptest::collection::vec(arb_tree(), 1..4),
        ops in proptest::collection::vec((0u8..4, proptest::collection::vec(0usize..12, 0..8)), 1..16),
        seed in any::<u64>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let pool: Vec<Tree> = base
            .iter()
            .flat_map(|t| [t.clone(), mutant(t, &mut rng, false), mutant(t, &mut rng, true)])
            .collect();
        let pick = |ix: &[usize]| ix.iter().map(|i| pool[i % pool.len()].clone()).collect::<Vec<_>>();
        let ser = |ts: &[Tree]| ts.iter().map(Tree::serialize).collect::<Vec<_>>();
        let (mut set, mut oracle) = (CanonMultiset::default(), CanonKeyed::default());
        for (op, ix) in ops {
            let trees = pick(&ix);
            match op {
                0 => {
                    set.record(&trees);
                    oracle.record(&trees);
                }
                1 => prop_assert_eq!(ser(&set.admit(trees.clone())), ser(&oracle.admit(trees))),
                2 => {
                    set.retract(&trees);
                    oracle.retract(&trees);
                }
                _ => {
                    let mut parent = Tree::new("parent");
                    let root = parent.root();
                    for t in &trees {
                        parent.graft(root, t, t.root()).unwrap();
                    }
                    set = CanonMultiset::of_children(&parent, root);
                    oracle = CanonKeyed::of_children(&parent, root);
                }
            }
            prop_assert_eq!(set.delivered(), oracle.delivered);
        }
    }

    /// The multiset's map hashes a digest by folding it; it still answers
    /// random interleavings of `record`, `record_digests`, `admit`,
    /// `admit_digests` and `retract` exactly as the `Canon`-keyed one —
    /// and counting trees by their digests is counting the trees.
    #[test]
    fn the_folded_multiset_answers_as_the_canon_keyed_one(
        base in proptest::collection::vec(arb_tree(), 1..4),
        ops in proptest::collection::vec((0u8..4, proptest::collection::vec(0usize..12, 0..8)), 1..24),
        seed in any::<u64>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let pool: Vec<Tree> = base
            .iter()
            .flat_map(|t| [t.clone(), mutant(t, &mut rng, false), mutant(t, &mut rng, true)])
            .collect();
        let pick = |ix: &[usize]| ix.iter().map(|i| pool[i % pool.len()].clone()).collect::<Vec<_>>();
        let ser = |ts: &[Tree]| ts.iter().map(Tree::serialize).collect::<Vec<_>>();
        let (mut set, mut oracle) = (CanonMultiset::default(), CanonKeyed::default());
        for (op, ix) in ops {
            let trees = pick(&ix);
            match op {
                0 => set.record(&trees),
                1 => {
                    let digests: Vec<u128> = trees.iter().map(|t| canonical_digest(t, t.root())).collect();
                    set.record_digests(&digests);
                }
                2 => {
                    set.retract(&trees);
                    oracle.retract(&trees);
                    prop_assert_eq!(set.delivered(), oracle.delivered);
                    continue;
                }
                _ => {
                    let fresh = if ix.len() % 2 == 0 {
                        set.admit(trees.clone())
                    } else {
                        let digests: Vec<u128> = trees.iter().map(|t| canonical_digest(t, t.root())).collect();
                        set.admit_digests(trees.clone(), &digests)
                    };
                    prop_assert_eq!(ser(&fresh), ser(&oracle.admit(trees)));
                    prop_assert_eq!(set.delivered(), oracle.delivered);
                    continue;
                }
            }
            oracle.record(&trees);
            prop_assert_eq!(set.delivered(), oracle.delivered);
        }
    }
}
