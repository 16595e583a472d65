//! Property tests: the Brzozowski-derivative matcher agrees with a naive
//! exponential reference matcher on random small models and item strings.

use axml_types::content::{Content, Item};
use axml_xml::Label;
use proptest::prelude::*;

/// Reference semantics by brute force: try every split/alternative.
fn matches_ref(c: &Content, items: &[Item]) -> bool {
    match c {
        Content::Empty => items.is_empty(),
        Content::Void => false,
        Content::Text => items == [Item::Text],
        Content::Elem(l, _) => {
            matches!(items, [Item::Elem(il)] if il == l)
        }
        Content::AnyItem => items.len() == 1,
        Content::Seq(cs) => seq_ref(cs, items),
        Content::Choice(cs) => cs.iter().any(|c| matches_ref(c, items)),
        Content::Opt(c) => items.is_empty() || matches_ref(c, items),
        Content::Star(c) => {
            if items.is_empty() {
                return true;
            }
            // split off a non-empty prefix matching c, recurse
            (1..=items.len()).any(|k| {
                matches_ref(c, &items[..k]) && matches_ref(&Content::Star(c.clone()), &items[k..])
            })
        }
        Content::Plus(c) => {
            if items.is_empty() {
                // one iteration matching ε suffices when c is nullable
                return matches_ref(c, &[]);
            }
            (1..=items.len()).any(|k| {
                matches_ref(c, &items[..k]) && matches_ref(&Content::Star(c.clone()), &items[k..])
            })
        }
        Content::Interleave(cs) => interleave_ref(cs, items),
    }
}

fn seq_ref(cs: &[Content], items: &[Item]) -> bool {
    match cs {
        [] => items.is_empty(),
        [first, rest @ ..] => {
            (0..=items.len()).any(|k| matches_ref(first, &items[..k]) && seq_ref(rest, &items[k..]))
        }
    }
}

/// Interleave by brute force: assign each item to one operand preserving
/// per-operand order; try all assignments.
fn interleave_ref(cs: &[Content], items: &[Item]) -> bool {
    fn go(cs: &[Content], buckets: &mut Vec<Vec<Item>>, items: &[Item]) -> bool {
        match items.split_first() {
            None => cs
                .iter()
                .zip(buckets.iter())
                .all(|(c, b)| matches_ref(c, b)),
            Some((first, rest)) => {
                for i in 0..cs.len() {
                    buckets[i].push(first.clone());
                    if go(cs, buckets, rest) {
                        buckets[i].pop();
                        return true;
                    }
                    buckets[i].pop();
                }
                false
            }
        }
    }
    if cs.is_empty() {
        return items.is_empty();
    }
    let mut buckets = vec![Vec::new(); cs.len()];
    go(cs, &mut buckets, items)
}

fn arb_item() -> impl Strategy<Value = Item> {
    prop_oneof![
        Just(Item::Text),
        prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(|l| Item::Elem(Label::new(l))),
    ]
}

fn arb_content() -> impl Strategy<Value = Content> {
    let leaf = prop_oneof![
        Just(Content::Empty),
        Just(Content::Text),
        Just(Content::AnyItem),
        prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(|l| Content::elem(l, "T")),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Content::Seq),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Content::Choice),
            inner.clone().prop_map(Content::star),
            inner.clone().prop_map(Content::plus),
            inner.clone().prop_map(Content::opt),
            proptest::collection::vec(inner, 1..3).prop_map(Content::Interleave),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Derivative matcher ≡ brute-force reference.
    #[test]
    fn deriv_agrees_with_reference(
        c in arb_content(),
        items in proptest::collection::vec(arb_item(), 0..6),
    ) {
        prop_assert_eq!(c.matches(&items), matches_ref(&c, &items),
            "model: {} items: {:?}", c, items);
    }

    /// nullable(c) == matches(c, ε).
    #[test]
    fn nullable_is_empty_match(c in arb_content()) {
        prop_assert_eq!(c.nullable(), matches_ref(&c, &[]));
    }
}
