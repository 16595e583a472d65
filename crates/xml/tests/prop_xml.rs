//! Property-based tests for the XML substrate: parser/serializer
//! round-trips, equivalence-relation laws, and size accounting.

use axml_xml::equiv::{canonical_hash, forest_equiv, tree_equiv, whole_tree_equiv};
use axml_xml::tree::{NodeId, Tree};
use proptest::prelude::*;

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
