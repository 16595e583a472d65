//! Serialization of trees back to XML text, plus wire-size accounting.
//!
//! Two renderings are provided: a *compact* form (no insignificant
//! whitespace — this is what crosses the simulated network, and what the
//! cost model measures) and a *pretty* form for humans. The
//! [`Tree::serialized_size`] method computes the compact size **without
//! allocating the string**, because the optimizer's cost model calls it on
//! every candidate data transfer. [`Tree::write_compact`] streams the
//! compact form into any [`fmt::Write`] sink, so a caller that only
//! counts or hashes the bytes builds no string either, and
//! [`Tree::serialize_into`] appends it to a byte buffer.
//!
//! ## The bytes memo
//!
//! [`Tree::serialize_into`] is how a socket-backed transport renders a
//! shipped tree, and a peer ships the same unchanged document again and
//! again. So for a whole document (a handle rooted at its arena's slot 0,
//! the rule the size memo follows) the arena remembers its renders: the
//! first since the arena last changed only notes that it happened, the
//! second keeps a copy of the bytes beside the memoized size, and every
//! later one copies them instead of walking the tree. Only a document
//! rendered twice pays the memory, and the simulator, which never
//! renders, pays none. Every mutation goes through `Tree::nodes_mut`,
//! which forgets both memos; a copy-on-write copy starts without them;
//! a subtree view neither reads nor fills them. [`Tree::serialize`] and
//! [`Tree::serialize_node`] always walk: they build a string for a
//! reader, and are what the serializer's own speed is measured by.
//!
//! The walks here — the bytes, the sizes and the pretty form — keep their
//! open elements on a stack of their own, so a tree of any depth renders
//! and measures without touching the call stack (and without allocating
//! while it is at most 16 elements deep).

use crate::escape::{escaped_attr_len, escaped_text_len, write_attr, write_text};
use crate::small::Small;
use crate::symbol::Label;
use crate::tree::{NodeId, NodeKind, Tree};
use std::fmt;
use std::sync::Arc;

/// Bytes the attributes take in a start tag.
fn attrs_len(attrs: &[(Label, Arc<str>)]) -> usize {
    attrs
        .iter()
        // space + name + ="..."
        .map(|(n, v)| 1 + n.len() + 2 + escaped_attr_len(v) + 1)
        .sum()
}

impl Tree {
    /// Serialize the subtree rooted at `id` compactly.
    pub fn serialize_node(&self, id: NodeId) -> String {
        let mut out = String::with_capacity(self.serialized_size_node(id));
        self.write_compact(id, &mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Serialize the whole tree compactly.
    pub fn serialize(&self) -> String {
        self.serialize_node(self.root())
    }

    /// Append the bytes of [`Tree::serialize`] to `out`, a buffer that
    /// may already hold a frame's head: one walk straight into it, or,
    /// for a whole document rendered twice since it last changed, a copy
    /// of the bytes its arena kept (see the module docs' bytes memo). The
    /// second render of a whole document allocates once, for that copy.
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        /// UTF-8 text into a byte buffer.
        struct Bytes<'a>(&'a mut Vec<u8>);
        impl fmt::Write for Bytes<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.extend_from_slice(s.as_bytes());
                Ok(())
            }
        }
        let root = self.root();
        if let Some(bytes) = self.memoized_bytes(root) {
            out.extend_from_slice(bytes);
            return;
        }
        #[cfg(test)]
        tests::WALKS.set(tests::WALKS.get() + 1);
        let start = out.len();
        self.write_compact(root, &mut Bytes(out))
            .expect("writing to a byte buffer cannot fail");
        self.memoize_bytes(root, &out[start..]);
    }

    /// Serialize the whole tree with indentation, for humans.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(self.root(), &mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Exact byte length of [`Tree::serialize_node`], computed without
    /// building the string. This is the wire size used by the cost model
    /// and charged for every shipped tree. For the arena's own root it is
    /// memoized on the arena, so measuring an unchanged document again —
    /// through this handle or any other sharing the arena — is O(1).
    pub fn serialized_size_node(&self, id: NodeId) -> usize {
        match self.memoized_size(id) {
            Some(size) => size,
            None => self.serialized_sizes(id, &mut |_, _| {}),
        }
    }

    /// [`Tree::serialized_size_node`] of every node of the subtree rooted
    /// at `id` in one bottom-up pass: `visit` gets each node with its
    /// size, children before their parent. Returns the size of `id` (and
    /// leaves it memoized, like [`Tree::serialized_size_node`]).
    pub fn serialized_sizes(&self, id: NodeId, visit: &mut impl FnMut(NodeId, usize)) -> usize {
        let size = self.sizes_below(id, visit);
        self.memoize_size(id, size);
        size
    }

    fn sizes_below(&self, id: NodeId, visit: &mut impl FnMut(NodeId, usize)) -> usize {
        // The open elements, each with the children still to measure and
        // its size so far: both tags, plus the children measured.
        let mut open: Small<(NodeId, &[NodeId], usize), 16> = Small::new((id, &[], 0));
        let mut node = id;
        loop {
            // Open elements down to a leaf, and measure it.
            let mut size = match &self.node(node).kind {
                NodeKind::Text(t) => escaped_text_len(t),
                NodeKind::Element { label, attrs } => {
                    let name = label.len();
                    // <name attrs
                    let start = 1 + name + attrs_len(attrs);
                    match self.children(node).split_first() {
                        // <name attrs> + children + </name>
                        Some((&first, rest)) => {
                            open.push((node, rest, start + 1 + 2 + name + 1));
                            node = first;
                            continue;
                        }
                        // <name attrs/>
                        None => start + 2,
                    }
                }
            };
            visit(node, size);
            // Hand the size to the parent; close the parents it completes.
            loop {
                let Some(top) = open.items().last_mut() else {
                    return size;
                };
                top.2 += size;
                if let Some((&child, rest)) = top.1.split_first() {
                    top.1 = rest;
                    node = child;
                    break;
                }
                let (element, _, full) = *top;
                size = full;
                visit(element, size);
                open.pop();
            }
        }
    }

    /// Wire size of the whole tree.
    pub fn serialized_size(&self) -> usize {
        self.serialized_size_node(self.root())
    }

    /// Write the compact serialization of the subtree rooted at `id`
    /// into `out` — byte for byte what [`Tree::serialize_node`] returns.
    pub fn write_compact<W: fmt::Write>(&self, id: NodeId, out: &mut W) -> fmt::Result {
        // The open elements, each with its label and the children still
        // to write.
        let mut open: Small<(&str, &[NodeId]), 16> = Small::new(("", &[]));
        let mut node = id;
        loop {
            match &self.node(node).kind {
                NodeKind::Text(t) => write_text(out, t)?,
                NodeKind::Element { label, attrs } => {
                    let label = label.as_str();
                    out.write_char('<')?;
                    out.write_str(label)?;
                    for (n, v) in attrs {
                        out.write_char(' ')?;
                        out.write_str(n.as_str())?;
                        out.write_str("=\"")?;
                        write_attr(out, v)?;
                        out.write_char('"')?;
                    }
                    match self.children(node).split_first() {
                        Some((&first, rest)) => {
                            out.write_char('>')?;
                            open.push((label, rest));
                            node = first;
                            continue;
                        }
                        None => out.write_str("/>")?,
                    }
                }
            }
            // Close the elements whose children are all written; the next
            // child of the innermost one left open is the next node.
            loop {
                let Some(top) = open.items().last_mut() else {
                    return Ok(());
                };
                if let Some((&child, rest)) = top.1.split_first() {
                    top.1 = rest;
                    node = child;
                    break;
                }
                let label = top.0;
                out.write_str("</")?;
                out.write_str(label)?;
                out.write_char('>')?;
                open.pop();
            }
        }
    }

    fn write_pretty(&self, id: NodeId, out: &mut String) -> fmt::Result {
        let pad = |out: &mut String, depth: usize| (0..depth).for_each(|_| out.push_str("  "));
        // The open elements — one indentation step each — with their
        // labels and the children still to write.
        let mut open: Small<(&str, &[NodeId]), 16> = Small::new(("", &[]));
        let mut node = id;
        loop {
            pad(out, open.items().len());
            match &self.node(node).kind {
                NodeKind::Text(t) => {
                    write_text(out, t)?;
                    out.push('\n');
                }
                NodeKind::Element { label, attrs } => {
                    let label = label.as_str();
                    out.push('<');
                    out.push_str(label);
                    for (n, v) in attrs {
                        out.push(' ');
                        out.push_str(n.as_str());
                        out.push_str("=\"");
                        write_attr(out, v)?;
                        out.push('"');
                    }
                    let children = self.children(node);
                    if children.is_empty() {
                        out.push_str("/>\n");
                    } else if children.iter().any(|&c| !self.node(c).is_element()) {
                        // Mixed or text content: render the whole subtree
                        // compactly so indentation never pollutes text nodes.
                        out.push('>');
                        for &c in children {
                            self.write_compact(c, out)?;
                        }
                        out.push_str("</");
                        out.push_str(label);
                        out.push_str(">\n");
                    } else {
                        out.push_str(">\n");
                        open.push((label, children));
                    }
                }
            }
            // Close the elements whose children are all written; the next
            // child of the innermost one left open is the next node.
            loop {
                let Some(top) = open.items().last_mut() else {
                    return Ok(());
                };
                if let Some((&child, rest)) = top.1.split_first() {
                    top.1 = rest;
                    node = child;
                    break;
                }
                let label = top.0;
                open.pop();
                pad(out, open.items().len());
                out.push_str("</");
                out.push_str(label);
                out.push_str(">\n");
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    thread_local! {
        /// Walks `serialize_into` made on this thread, rather than copy.
        pub(crate) static WALKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// The walks of `f`'s `serialize_into` calls on this thread.
    fn walks(f: impl FnOnce()) -> usize {
        let before = WALKS.get();
        f();
        WALKS.get() - before
    }

    /// The bound of the bytes memo: a document is walked by its first two
    /// renders since it last changed, and copied from then on.
    #[test]
    fn a_document_is_walked_twice_then_copied() {
        let mut t = Tree::new("catalog");
        let r = t.root();
        let p = t.add_element(r, "pkg");
        t.set_attr(p, "name", "a&b").unwrap();
        t.add_text_element(p, "version", "1<2");
        for round in 0..2 {
            let want = t.serialize().into_bytes();
            let render = || {
                let mut out = b"head".to_vec();
                t.serialize_into(&mut out);
                assert_eq!(out[4..], want, "round {round}");
            };
            assert_eq!(walks(render), 1, "the first render walks");
            assert_eq!(t.memoized_bytes(r), None, "…and keeps nothing");
            assert_eq!(walks(render), 1, "the second render walks");
            assert_eq!(t.memoized_bytes(r), Some(&want[..]), "…and keeps the bytes");
            for _ in 0..3 {
                assert_eq!(walks(render), 0, "later renders copy");
            }
            // a handle sharing the arena finds the bytes; a view does not
            let whole = t.clone();
            assert_eq!(walks(|| whole.serialize_into(&mut Vec::new())), 0);
            let view = t.subtree(p).unwrap();
            for _ in 0..3 {
                assert_eq!(walks(|| view.serialize_into(&mut Vec::new())), 1);
            }
            // unshared again, so the mutation changes this very arena and
            // the next two renders walk again
            drop((whole, view));
            t.add_element(r, "extra");
        }
    }

    #[test]
    fn compact_roundtrip_shape() {
        let mut t = Tree::new("a");
        let r = t.root();
        t.set_attr(r, "k", "v\"w").unwrap();
        let b = t.add_element(r, "b");
        t.add_text(b, "x<y");
        t.add_element(r, "c");
        assert_eq!(t.serialize(), r#"<a k="v&quot;w"><b>x&lt;y</b><c/></a>"#);
        let mut bytes = b"head".to_vec();
        t.subtree(b).unwrap().serialize_into(&mut bytes);
        assert_eq!(bytes, b"head<b>x&lt;y</b>");
    }

    #[test]
    fn size_matches_serialization() {
        let mut t = Tree::new("root");
        let r = t.root();
        t.set_attr(r, "id", "1&2").unwrap();
        let child = t.add_element(r, "child");
        t.add_text(child, "some > text & more");
        t.add_element(r, "empty");
        assert_eq!(t.serialized_size(), t.serialize().len());
        assert_eq!(t.serialized_size_node(child), t.serialize_node(child).len());
        // the one-pass walk reports the same size for every node, children first
        let mut seen = Vec::new();
        t.serialized_sizes(r, &mut |n, size| {
            assert_eq!(size, t.serialize_node(n).len());
            seen.push(n);
        });
        assert_eq!(seen.len(), t.live_len());
        assert_eq!(seen.last(), Some(&r));
    }

    #[test]
    fn pretty_is_indented() {
        let mut t = Tree::new("a");
        let r = t.root();
        t.add_text_element(r, "b", "hi");
        let p = t.pretty();
        assert!(p.contains("<a>\n"), "{p}");
        assert!(p.contains("  <b>hi</b>\n"), "{p}");
        assert!(p.ends_with("</a>\n"), "{p}");
    }

    #[test]
    fn pretty_empty_element() {
        let t = Tree::new("solo");
        assert_eq!(t.pretty(), "<solo/>\n");
    }
}
