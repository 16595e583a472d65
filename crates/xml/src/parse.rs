//! A hand-written parser for the XML 1.0 subset used by AXML.
//!
//! Supported: one root element, nested elements, attributes (single or
//! double quoted), character data with the five predefined entities and
//! numeric character references, CDATA sections, comments, processing
//! instructions and an optional XML declaration (both skipped).
//!
//! Not supported (not needed by the paper's model): DTDs, namespaces as
//! first-class objects (colons are simply part of names), and mixed-content
//! whitespace preservation — **whitespace-only text between elements is
//! dropped**, so `parse(pretty(t))` re-reads the same tree. Elements
//! nest up to 256 deep; deeper input is a parse error, not a stack
//! overflow.

use crate::error::{XmlError, XmlResult};
use crate::escape::resolve_entity;
use crate::symbol::Label;
use crate::tree::{NodeId, Tree};
use std::borrow::Cow;

impl Tree {
    /// Parse an XML string into a tree.
    ///
    /// ```
    /// use axml_xml::tree::Tree;
    /// let t = Tree::parse("<a x='1'><b>hi</b></a>").unwrap();
    /// assert_eq!(t.attr(t.root(), "x"), Some("1"));
    /// ```
    pub fn parse(input: &str) -> XmlResult<Tree> {
        Parser::new(input).parse_document()
    }
}

/// How deep elements may nest. The parser recurses once per level, so
/// without a bound a peer sending `<a><a><a>…` overflows the stack.
const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, msg: impl Into<String>) -> XmlError {
        XmlError::parse(msg, self.line, self.col)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    fn expect(&mut self, b: u8) -> XmlResult<()> {
        match self.peek() {
            Some(x) if x == b => {
                self.bump();
                Ok(())
            }
            Some(x) => Err(self.err(format!("expected `{}`, found `{}`", b as char, x as char))),
            None => Err(self.err(format!("expected `{}`, found end of input", b as char))),
        }
    }

    fn parse_document(&mut self) -> XmlResult<Tree> {
        self.skip_misc()?;
        if self.peek() != Some(b'<') {
            return Err(self.err("expected root element"));
        }
        let mut tree: Option<Tree> = None;
        self.parse_element(&mut tree, None, 1)?;
        self.skip_misc()?;
        if self.pos != self.bytes.len() {
            return Err(self.err("unexpected content after root element"));
        }
        Ok(tree.expect("parse_element populates the tree"))
    }

    /// Skip whitespace, comments, PIs and the XML declaration.
    fn skip_misc(&mut self) -> XmlResult<()> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                return Err(self.err("DOCTYPE declarations are not supported"));
            } else {
                return Ok(());
            }
        }
    }

    fn skip_until(&mut self, end: &str) -> XmlResult<()> {
        match self.input[self.pos..].find(end) {
            Some(off) => {
                self.bump_n(off + end.len());
                Ok(())
            }
            None => Err(self.err(format!("unterminated construct, expected `{end}`"))),
        }
    }

    fn parse_name(&mut self) -> XmlResult<&'a str> {
        let start = self.pos;
        match self.peek() {
            Some(b) if is_name_start(b) => {
                self.bump();
            }
            _ => return Err(self.err("expected a name")),
        }
        while let Some(b) = self.peek() {
            if is_name_char(b) {
                self.bump();
            } else {
                break;
            }
        }
        Ok(&self.input[start..self.pos])
    }

    /// Parse a name and intern it within the label budget: a fresh name
    /// past it is an error at the name's start.
    fn parse_label(&mut self) -> XmlResult<Label> {
        let (line, col) = (self.line, self.col);
        let name = self.parse_name()?;
        Label::try_new(name).map_err(|full| XmlError::parse(full.to_string(), line, col))
    }

    /// Parse `<name attrs> children </name>` or `<name attrs/>`.
    ///
    /// On the first (root) call `tree` is `None` and is created from the
    /// root element's name; afterwards children attach under `parent`.
    /// `depth` counts this element and its ancestors.
    fn parse_element(
        &mut self,
        tree: &mut Option<Tree>,
        parent: Option<NodeId>,
        depth: usize,
    ) -> XmlResult<()> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("elements nested deeper than {MAX_DEPTH}")));
        }
        self.expect(b'<')?;
        let name = self.parse_label()?;
        let el = match (tree.as_mut(), parent) {
            (None, _) => {
                *tree = Some(Tree::new(name));
                tree.as_ref().expect("just set").root()
            }
            (Some(t), Some(p)) => t.add_element(p, name),
            (Some(_), None) => unreachable!("non-root parse always has a parent"),
        };
        // attributes
        loop {
            let before = self.pos;
            self.skip_ws();
            match self.peek() {
                Some(b'/') | Some(b'>') => break,
                Some(b) if is_name_start(b) => {
                    if before == self.pos {
                        return Err(self.err("expected whitespace before attribute"));
                    }
                    let aname = self.parse_label()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    let t = tree.as_mut().expect("tree exists");
                    if t.attr(el, aname.as_str()).is_some() {
                        return Err(self.err(format!("duplicate attribute `{aname}`")));
                    }
                    t.set_attr(el, aname, value).expect("el is an element");
                }
                Some(c) => return Err(self.err(format!("unexpected `{}` in tag", c as char))),
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }
        if self.peek() == Some(b'/') {
            self.bump();
            self.expect(b'>')?;
            return Ok(());
        }
        self.expect(b'>')?;
        // content
        loop {
            if self.starts_with("</") {
                self.bump_n(2);
                let close = self.parse_name()?;
                if close != name.as_str() {
                    return Err(self.err(format!(
                        "mismatched closing tag: expected `</{name}>`, found `</{close}>`"
                    )));
                }
                self.skip_ws();
                self.expect(b'>')?;
                return Ok(());
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<![CDATA[") {
                let text = self.parse_cdata()?;
                let t = tree.as_mut().expect("tree exists");
                t.add_text(el, text);
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.peek() == Some(b'<') {
                self.parse_element(tree, Some(el), depth + 1)?;
            } else if self.peek().is_none() {
                return Err(self.err(format!("unexpected end of input inside `<{name}>`")));
            } else {
                let text = self.parse_text()?;
                if !text.trim().is_empty() {
                    let t = tree.as_mut().expect("tree exists");
                    t.add_text(el, text);
                }
            }
        }
    }

    fn parse_attr_value(&mut self) -> XmlResult<Cow<'a, str>> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.bump();
                q
            }
            _ => return Err(self.err("expected quoted attribute value")),
        };
        let value = self.chars(|b| b == quote || b == b'<')?;
        match self.peek() {
            Some(b'<') => Err(self.err("`<` is not allowed in attribute values")),
            Some(_) => {
                self.bump();
                Ok(value)
            }
            None => Err(self.err("unterminated attribute value")),
        }
    }

    fn parse_text(&mut self) -> XmlResult<Cow<'a, str>> {
        self.chars(|b| b == b'<')
    }

    /// Character data up to the first byte `end` accepts (or the end of
    /// the input), with its references resolved: a slice of the input
    /// when it holds none, else decoded into a string sized for the raw
    /// text (a reference is never shorter than what it stands for). So
    /// the tree makes the common string once, from a borrow.
    fn chars(&mut self, end: impl Fn(u8) -> bool) -> XmlResult<Cow<'a, str>> {
        let start = self.pos;
        let run = |p: &mut Self| {
            while p.peek().is_some_and(|b| !end(b) && b != b'&') {
                p.bump();
            }
        };
        run(self);
        if self.peek() != Some(b'&') {
            return Ok(Cow::Borrowed(&self.input[start..self.pos]));
        }
        let raw = self.input[start..].bytes().take_while(|&b| !end(b)).count();
        let mut out = String::with_capacity(raw);
        out.push_str(&self.input[start..self.pos]);
        while self.peek() == Some(b'&') {
            out.push(self.parse_entity()?);
            let from = self.pos;
            run(self);
            out.push_str(&self.input[from..self.pos]);
        }
        Ok(Cow::Owned(out))
    }

    fn parse_entity(&mut self) -> XmlResult<char> {
        self.expect(b'&')?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b';' {
                let name = &self.input[start..self.pos];
                let c = resolve_entity(name)
                    .ok_or_else(|| self.err(format!("unknown entity `&{name};`")))?;
                self.bump();
                return Ok(c);
            }
            if self.pos - start > 10 {
                break;
            }
            self.bump();
        }
        Err(self.err("unterminated entity reference"))
    }

    fn parse_cdata(&mut self) -> XmlResult<&'a str> {
        debug_assert!(self.starts_with("<![CDATA["));
        self.bump_n("<![CDATA[".len());
        match self.input[self.pos..].find("]]>") {
            Some(off) => {
                let text = &self.input[self.pos..self.pos + off];
                self.bump_n(off + 3);
                Ok(text)
            }
            None => Err(self.err("unterminated CDATA section")),
        }
    }
}

fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
}

fn is_name_char(b: u8) -> bool {
    is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_roundtrip() {
        let src = r#"<a k="v"><b>hi</b><c/></a>"#;
        let t = Tree::parse(src).unwrap();
        assert_eq!(t.serialize(), src);
    }

    #[test]
    fn whitespace_between_elements_dropped() {
        let t = Tree::parse("<a>\n  <b>x</b>\n  <c/>\n</a>").unwrap();
        assert_eq!(t.serialize(), "<a><b>x</b><c/></a>");
    }

    #[test]
    fn declaration_comments_pis_skipped() {
        let t = Tree::parse(
            "<?xml version=\"1.0\"?>\n<!-- hi --><a><!-- in --><?pi data?><b/></a><!-- post -->",
        )
        .unwrap();
        assert_eq!(t.serialize(), "<a><b/></a>");
    }

    #[test]
    fn entities_and_charrefs() {
        let t = Tree::parse("<a attr='1 &amp; 2'>&lt;x&gt; &#65;&#x42;</a>").unwrap();
        assert_eq!(t.attr(t.root(), "attr"), Some("1 & 2"));
        assert_eq!(t.text(t.root()), "<x> AB");
    }

    #[test]
    fn cdata_preserved_verbatim() {
        let t = Tree::parse("<a><![CDATA[<not a tag> & co]]></a>").unwrap();
        assert_eq!(t.text(t.root()), "<not a tag> & co");
    }

    #[test]
    fn single_quoted_attrs() {
        let t = Tree::parse(r#"<a x='y"z'/>"#).unwrap();
        assert_eq!(t.attr(t.root(), "x"), Some("y\"z"));
    }

    #[test]
    fn errors_are_positioned() {
        let e = Tree::parse("<a>\n<b></c></a>").unwrap_err();
        match e {
            XmlError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "<a>".repeat(depth) + &"</a>".repeat(depth);
        let at_cap = Tree::parse(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(at_cap.live_len(), MAX_DEPTH);
        // Used to overflow the stack and abort the process.
        for depth in [MAX_DEPTH + 1, 100_000] {
            match Tree::parse(&nested(depth)) {
                Err(XmlError::Parse { msg, .. }) => assert!(msg.contains("deeper than 256")),
                other => panic!("depth {depth}: {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_malformed() {
        assert!(Tree::parse("").is_err());
        assert!(Tree::parse("just text").is_err());
        assert!(Tree::parse("<a>").is_err());
        assert!(Tree::parse("<a></b>").is_err());
        assert!(Tree::parse("<a><a/>").is_err());
        assert!(Tree::parse("<a/><b/>").is_err());
        assert!(Tree::parse("<a x=1/>").is_err());
        assert!(Tree::parse("<a x=\"1\" x=\"2\"/>").is_err());
        assert!(Tree::parse("<a>&bogus;</a>").is_err());
        assert!(Tree::parse("<a>&unterminated</a>").is_err());
        assert!(Tree::parse("<a b=\"<\"/>").is_err());
        assert!(Tree::parse("<!DOCTYPE html><a/>").is_err());
        assert!(Tree::parse("<a><![CDATA[x]]</a>").is_err());
        assert!(Tree::parse("<1tag/>").is_err());
        assert!(Tree::parse("<a trailing=\"1\"").is_err());
    }

    #[test]
    fn missing_space_between_attrs_rejected() {
        assert!(Tree::parse(r#"<a x="1"y="2"/>"#).is_err());
    }

    #[test]
    fn nested_structure() {
        let src = "<r><l1><l2><l3>deep</l3></l2></l1><l1b/></r>";
        let t = Tree::parse(src).unwrap();
        assert_eq!(t.subtree_size(t.root()), 6);
        assert_eq!(t.serialize(), src);
        assert_eq!(t.text(t.root()), "deep");
    }

    #[test]
    fn colons_in_names_ok() {
        let t = Tree::parse("<axml:sc xmlns:axml=\"uri\"/>").unwrap();
        assert_eq!(t.label(t.root()).unwrap().as_str(), "axml:sc");
    }
}
