//! Content models and their Brzozowski-derivative matcher.
//!
//! A content model is a regular expression over *child items*: element
//! labels (each bound to the type its subtree must validate against) and
//! text. Matching is done with Brzozowski derivatives: `deriv(c, x)` is the
//! content model matching exactly the suffixes `w` such that `x·w` matches
//! `c`; a sequence matches iff the model reached after deriving on each
//! item in turn is *nullable* (accepts ε).
//!
//! Besides the ordered regex operators, [`Content::Interleave`] matches its
//! operands in any interleaved order — the natural combinator for AXML's
//! unordered trees.

use crate::schema::TypeName;
use axml_xml::Label;
use std::fmt;

/// A content-model expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Content {
    /// Matches the empty child sequence (ε).
    Empty,
    /// Matches nothing at all (∅) — mostly an internal result of derivation.
    Void,
    /// Matches exactly one text child.
    Text,
    /// Matches one element child with the given label, whose subtree must
    /// validate against the named type.
    Elem(Label, TypeName),
    /// Matches any single child (element of any label, or text), with no
    /// constraint on the subtree — XML Schema's `xs:any` with skip.
    AnyItem,
    /// Ordered concatenation.
    Seq(Vec<Content>),
    /// Alternation.
    Choice(Vec<Content>),
    /// Zero or one.
    Opt(Box<Content>),
    /// Zero or more.
    Star(Box<Content>),
    /// One or more.
    Plus(Box<Content>),
    /// All operands, each exactly once, in any interleaved order
    /// (XML Schema `xs:all`, generalized).
    Interleave(Vec<Content>),
}

/// One child item, as seen by the matcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// An element child with this label.
    Elem(Label),
    /// A text child.
    Text,
}

impl Content {
    /// `label` bound to `ty` — convenience constructor.
    pub fn elem(label: impl Into<Label>, ty: impl Into<TypeName>) -> Content {
        Content::Elem(label.into(), ty.into())
    }

    /// Ordered sequence.
    pub fn seq(items: impl IntoIterator<Item = Content>) -> Content {
        Content::Seq(items.into_iter().collect())
    }

    /// Alternation.
    pub fn choice(items: impl IntoIterator<Item = Content>) -> Content {
        Content::Choice(items.into_iter().collect())
    }

    /// Zero-or-more.
    pub fn star(c: Content) -> Content {
        Content::Star(Box::new(c))
    }

    /// One-or-more.
    pub fn plus(c: Content) -> Content {
        Content::Plus(Box::new(c))
    }

    /// Zero-or-one.
    pub fn opt(c: Content) -> Content {
        Content::Opt(Box::new(c))
    }

    /// Unordered group.
    pub fn interleave(items: impl IntoIterator<Item = Content>) -> Content {
        Content::Interleave(items.into_iter().collect())
    }

    /// "Anything at all": `AnyItem*`.
    pub fn any() -> Content {
        Content::star(Content::AnyItem)
    }

    /// Does this model accept the empty sequence?
    pub fn nullable(&self) -> bool {
        match self {
            Content::Empty => true,
            Content::Void | Content::Text | Content::Elem(..) | Content::AnyItem => false,
            Content::Seq(cs) => cs.iter().all(Content::nullable),
            Content::Choice(cs) => cs.iter().any(Content::nullable),
            Content::Opt(_) | Content::Star(_) => true,
            Content::Plus(c) => c.nullable(),
            Content::Interleave(cs) => cs.iter().all(Content::nullable),
        }
    }

    /// Does this single item match this atom-level model position?
    fn atom_matches(&self, item: &Item) -> bool {
        match (self, item) {
            (Content::Text, Item::Text) => true,
            (Content::Elem(l, _), Item::Elem(il)) => l == il,
            (Content::AnyItem, _) => true,
            _ => false,
        }
    }

    /// Brzozowski derivative of the model with respect to one item.
    pub fn deriv(&self, item: &Item) -> Content {
        match self {
            Content::Empty | Content::Void => Content::Void,
            Content::Text | Content::Elem(..) | Content::AnyItem => {
                if self.atom_matches(item) {
                    Content::Empty
                } else {
                    Content::Void
                }
            }
            Content::Seq(cs) => {
                // d(c1 c2 … cn) = d(c1) c2 … cn  |  [c1 nullable] d(c2 … cn)
                let mut alts = Vec::new();
                for (i, c) in cs.iter().enumerate() {
                    let d = c.deriv(item);
                    if d != Content::Void {
                        let mut rest = vec![d];
                        rest.extend(cs[i + 1..].iter().cloned());
                        alts.push(simplify_seq(rest));
                    }
                    if !c.nullable() {
                        break;
                    }
                }
                simplify_choice(alts)
            }
            Content::Choice(cs) => {
                let alts: Vec<Content> = cs
                    .iter()
                    .map(|c| c.deriv(item))
                    .filter(|d| *d != Content::Void)
                    .collect();
                simplify_choice(alts)
            }
            Content::Opt(c) => c.deriv(item),
            Content::Star(c) => {
                let d = c.deriv(item);
                if d == Content::Void {
                    Content::Void
                } else {
                    simplify_seq(vec![d, Content::Star(c.clone())])
                }
            }
            Content::Plus(c) => {
                let d = c.deriv(item);
                if d == Content::Void {
                    Content::Void
                } else {
                    simplify_seq(vec![d, Content::Star(c.clone())])
                }
            }
            Content::Interleave(cs) => {
                // d(c1 & … & cn) = choice over i of d(ci) & rest
                let mut alts = Vec::new();
                for i in 0..cs.len() {
                    let d = cs[i].deriv(item);
                    if d == Content::Void {
                        continue;
                    }
                    let mut rest: Vec<Content> = cs
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != i)
                        .map(|(_, c)| c.clone())
                        .collect();
                    if d != Content::Empty {
                        rest.push(d);
                    }
                    alts.push(match rest.len() {
                        0 => Content::Empty,
                        1 => rest.pop().expect("len checked"),
                        _ => Content::Interleave(rest),
                    });
                }
                simplify_choice(alts)
            }
        }
    }

    /// Match a full item sequence.
    pub fn matches(&self, items: &[Item]) -> bool {
        let mut cur = self.clone();
        for it in items {
            cur = cur.deriv(it);
            if cur == Content::Void {
                return false;
            }
        }
        cur.nullable()
    }

    /// The type bound to `label` anywhere in this model, if unique.
    /// Used by single-type validation to know which type a child validates
    /// against. Returns `Err` label names bound inconsistently.
    pub fn label_binding(&self, label: &Label) -> Option<&TypeName> {
        match self {
            Content::Elem(l, t) if l == label => Some(t),
            Content::Seq(cs) | Content::Choice(cs) | Content::Interleave(cs) => {
                cs.iter().find_map(|c| c.label_binding(label))
            }
            Content::Opt(c) | Content::Star(c) | Content::Plus(c) => c.label_binding(label),
            _ => None,
        }
    }

    /// Visit every `(label, type)` binding in the model.
    pub fn for_each_binding(&self, f: &mut impl FnMut(&Label, &TypeName)) {
        match self {
            Content::Elem(l, t) => f(l, t),
            Content::Seq(cs) | Content::Choice(cs) | Content::Interleave(cs) => {
                for c in cs {
                    c.for_each_binding(f);
                }
            }
            Content::Opt(c) | Content::Star(c) | Content::Plus(c) => c.for_each_binding(f),
            _ => {}
        }
    }
}

/// Flatten/neutralize a sequence: drop ε, propagate ∅, unwrap singletons.
fn simplify_seq(mut items: Vec<Content>) -> Content {
    if items.contains(&Content::Void) {
        return Content::Void;
    }
    items.retain(|c| *c != Content::Empty);
    match items.len() {
        0 => Content::Empty,
        1 => items.pop().expect("len checked"),
        _ => Content::Seq(items),
    }
}

/// Simplify an alternation: drop ∅, unwrap singletons, dedup.
fn simplify_choice(mut alts: Vec<Content>) -> Content {
    alts.retain(|c| *c != Content::Void);
    alts.dedup();
    match alts.len() {
        0 => Content::Void,
        1 => alts.pop().expect("len checked"),
        _ => Content::Choice(alts),
    }
}

impl fmt::Display for Content {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Content::Empty => write!(f, "ε"),
            Content::Void => write!(f, "∅"),
            Content::Text => write!(f, "text"),
            Content::Elem(l, t) => write!(f, "{l}:{t}"),
            Content::AnyItem => write!(f, "any"),
            Content::Seq(cs) => {
                write!(f, "(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Content::Choice(cs) => {
                write!(f, "(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Content::Opt(c) => write!(f, "{c}?"),
            Content::Star(c) => write!(f, "{c}*"),
            Content::Plus(c) => write!(f, "{c}+"),
            Content::Interleave(cs) => {
                write!(f, "(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(l: &str) -> Item {
        Item::Elem(Label::new(l))
    }

    fn model_abc() -> Content {
        Content::seq([
            Content::elem("a", "T"),
            Content::elem("b", "T"),
            Content::elem("c", "T"),
        ])
    }

    #[test]
    fn seq_matches_in_order() {
        let m = model_abc();
        assert!(m.matches(&[e("a"), e("b"), e("c")]));
        assert!(!m.matches(&[e("a"), e("c"), e("b")]));
        assert!(!m.matches(&[e("a"), e("b")]));
        assert!(!m.matches(&[e("a"), e("b"), e("c"), e("c")]));
        assert!(!m.matches(&[]));
    }

    #[test]
    fn star_and_plus() {
        let star = Content::star(Content::elem("x", "T"));
        assert!(star.matches(&[]));
        assert!(star.matches(&[e("x"), e("x"), e("x")]));
        assert!(!star.matches(&[e("y")]));
        let plus = Content::plus(Content::elem("x", "T"));
        assert!(!plus.matches(&[]));
        assert!(plus.matches(&[e("x")]));
        assert!(plus.matches(&[e("x"), e("x")]));
    }

    #[test]
    fn opt_and_choice() {
        let m = Content::seq([
            Content::opt(Content::elem("a", "T")),
            Content::choice([Content::elem("b", "T"), Content::elem("c", "T")]),
        ]);
        assert!(m.matches(&[e("b")]));
        assert!(m.matches(&[e("a"), e("c")]));
        assert!(!m.matches(&[e("a")]));
        assert!(!m.matches(&[e("b"), e("c")]));
    }

    #[test]
    fn interleave_any_order_once_each() {
        let m = Content::interleave([
            Content::elem("a", "T"),
            Content::elem("b", "T"),
            Content::elem("c", "T"),
        ]);
        assert!(m.matches(&[e("a"), e("b"), e("c")]));
        assert!(m.matches(&[e("c"), e("a"), e("b")]));
        assert!(!m.matches(&[e("a"), e("b")]));
        assert!(!m.matches(&[e("a"), e("b"), e("b"), e("c")]));
    }

    #[test]
    fn interleave_of_stars() {
        // (a* & b*) accepts any shuffle of a's and b's.
        let m = Content::interleave([
            Content::star(Content::elem("a", "T")),
            Content::star(Content::elem("b", "T")),
        ]);
        assert!(m.matches(&[]));
        assert!(m.matches(&[e("b"), e("a"), e("b"), e("a"), e("a")]));
        assert!(!m.matches(&[e("c")]));
    }

    #[test]
    fn text_and_any() {
        let m = Content::Text;
        assert!(m.matches(&[Item::Text]));
        assert!(!m.matches(&[e("a")]));
        assert!(!m.matches(&[Item::Text, Item::Text]));
        assert!(Content::any().matches(&[Item::Text, e("zzz")]));
        assert!(Content::any().matches(&[]));
        assert!(Content::AnyItem.matches(&[Item::Text]));
        assert!(!Content::AnyItem.matches(&[]));
    }

    #[test]
    fn mixed_text_model() {
        // text, pkg* — e.g. a description followed by packages
        let m = Content::seq([Content::Text, Content::star(Content::elem("pkg", "P"))]);
        assert!(m.matches(&[Item::Text, e("pkg"), e("pkg")]));
        assert!(!m.matches(&[e("pkg")]));
    }

    #[test]
    fn nullable_cases() {
        assert!(Content::Empty.nullable());
        assert!(!Content::Void.nullable());
        assert!(Content::star(Content::Text).nullable());
        assert!(!Content::plus(Content::Text).nullable());
        assert!(Content::plus(Content::opt(Content::Text)).nullable());
        assert!(Content::interleave([Content::Empty, Content::opt(Content::Text)]).nullable());
    }

    #[test]
    fn bindings_found() {
        let m = model_abc();
        assert_eq!(m.label_binding(&Label::new("b")).unwrap().as_str(), "T");
        assert!(m.label_binding(&Label::new("z")).is_none());
        let mut count = 0;
        m.for_each_binding(&mut |_, _| count += 1);
        assert_eq!(count, 3);
    }

    #[test]
    fn display_renders() {
        let m = Content::seq([
            Content::opt(Content::elem("a", "T")),
            Content::choice([Content::Text, Content::AnyItem]),
            Content::interleave([Content::elem("b", "U"), Content::Empty]),
        ]);
        let s = m.to_string();
        assert!(s.contains("a:T?"), "{s}");
        assert!(s.contains("text | any"), "{s}");
        assert!(s.contains("b:U & ε"), "{s}");
    }

    #[test]
    fn deriv_dead_ends() {
        let m = model_abc();
        assert_eq!(m.deriv(&e("b")), Content::Void);
        assert_eq!(Content::Empty.deriv(&e("a")), Content::Void);
        assert_eq!(Content::Void.deriv(&e("a")), Content::Void);
    }

    #[test]
    fn nested_groups() {
        // ((a b) | (b a)) c
        let m = Content::seq([
            Content::choice([
                Content::seq([Content::elem("a", "T"), Content::elem("b", "T")]),
                Content::seq([Content::elem("b", "T"), Content::elem("a", "T")]),
            ]),
            Content::elem("c", "T"),
        ]);
        assert!(m.matches(&[e("a"), e("b"), e("c")]));
        assert!(m.matches(&[e("b"), e("a"), e("c")]));
        assert!(!m.matches(&[e("a"), e("a"), e("c")]));
    }
}
