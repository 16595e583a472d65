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

use crate::escape::{escaped_attr_len, escaped_text_len, write_attr, write_text};
use crate::tree::{NodeId, NodeKind, Tree};
use std::fmt;

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

    /// Append the bytes of [`Tree::serialize`] to `out` — one walk,
    /// straight into a buffer that may already hold a frame's head.
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        /// UTF-8 text into a byte buffer.
        struct Bytes<'a>(&'a mut Vec<u8>);
        impl fmt::Write for Bytes<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.extend_from_slice(s.as_bytes());
                Ok(())
            }
        }
        self.write_compact(self.root(), &mut Bytes(out))
            .expect("writing to a byte buffer cannot fail");
    }

    /// Serialize the whole tree with indentation, for humans.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(self.root(), 0, &mut out)
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
        let size = match &self.node(id).kind {
            NodeKind::Text(t) => escaped_text_len(t),
            NodeKind::Element { label, attrs } => {
                let name = label.len();
                let attrs_len: usize = attrs
                    .iter()
                    // space + name + ="..."
                    .map(|(n, v)| 1 + n.len() + 2 + escaped_attr_len(v) + 1)
                    .sum();
                let children = self.children(id);
                if children.is_empty() {
                    // <name attrs/>
                    1 + name + attrs_len + 2
                } else {
                    // <name attrs> + children + </name>
                    let inner: usize = children.iter().map(|&c| self.sizes_below(c, visit)).sum();
                    (1 + name + attrs_len + 1) + inner + (2 + name + 1)
                }
            }
        };
        visit(id, size);
        size
    }

    /// Wire size of the whole tree.
    pub fn serialized_size(&self) -> usize {
        self.serialized_size_node(self.root())
    }

    /// Write the compact serialization of the subtree rooted at `id`
    /// into `out` — byte for byte what [`Tree::serialize_node`] returns.
    pub fn write_compact<W: fmt::Write>(&self, id: NodeId, out: &mut W) -> fmt::Result {
        match &self.node(id).kind {
            NodeKind::Text(t) => write_text(out, t),
            NodeKind::Element { label, attrs } => {
                out.write_char('<')?;
                out.write_str(label.as_str())?;
                for (n, v) in attrs {
                    out.write_char(' ')?;
                    out.write_str(n.as_str())?;
                    out.write_str("=\"")?;
                    write_attr(out, v)?;
                    out.write_char('"')?;
                }
                let children = self.children(id);
                if children.is_empty() {
                    out.write_str("/>")
                } else {
                    out.write_char('>')?;
                    for &c in children {
                        self.write_compact(c, out)?;
                    }
                    out.write_str("</")?;
                    out.write_str(label.as_str())?;
                    out.write_char('>')
                }
            }
        }
    }

    fn write_pretty(&self, id: NodeId, depth: usize, out: &mut String) -> fmt::Result {
        let pad = "  ".repeat(depth);
        match &self.node(id).kind {
            NodeKind::Text(t) => {
                out.push_str(&pad);
                write_text(out, t)?;
                out.push('\n');
            }
            NodeKind::Element { label, attrs } => {
                out.push_str(&pad);
                out.push('<');
                out.push_str(label.as_str());
                for (n, v) in attrs {
                    out.push(' ');
                    out.push_str(n.as_str());
                    out.push_str("=\"");
                    write_attr(out, v)?;
                    out.push('"');
                }
                let children = self.children(id);
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
                    out.push_str(label.as_str());
                    out.push_str(">\n");
                } else {
                    out.push_str(">\n");
                    for &c in children {
                        self.write_pretty(c, depth + 1, out)?;
                    }
                    out.push_str(&pad);
                    out.push_str("</");
                    out.push_str(label.as_str());
                    out.push_str(">\n");
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
