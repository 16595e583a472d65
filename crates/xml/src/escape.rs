//! Escaping and unescaping of XML character data and attribute values.

use std::fmt;

/// The entity byte `b` is written as; `"` only inside an attribute value.
/// Every escaped character is one byte of ASCII, so callers may scan
/// bytes and slice the string at the positions found.
fn entity(b: u8, in_attr: bool) -> Option<&'static str> {
    match b {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'"' if in_attr => Some("&quot;"),
        _ => None,
    }
}

/// Write `s` escaped into `out`; the runs between escaped characters go
/// out as whole slices.
fn write_escaped<W: fmt::Write>(out: &mut W, s: &str, in_attr: bool) -> fmt::Result {
    let mut from = 0;
    for (i, b) in s.bytes().enumerate() {
        if let Some(e) = entity(b, in_attr) {
            out.write_str(&s[from..i])?;
            out.write_str(e)?;
            from = i + 1;
        }
    }
    out.write_str(&s[from..])
}

fn escaped_len(s: &str, in_attr: bool) -> usize {
    let grown: usize = s
        .bytes()
        .filter_map(|b| entity(b, in_attr))
        .map(|e| e.len() - 1)
        .sum();
    s.len() + grown
}

/// Write text content into `out`: `&`, `<`, `>` are replaced by entities.
pub fn write_text<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    write_escaped(out, s, false)
}

/// Write a double-quoted attribute value into `out`: also escapes `"`.
pub fn write_attr<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    write_escaped(out, s, true)
}

/// Number of bytes [`write_text`] writes for `s`, without allocating.
pub fn escaped_text_len(s: &str) -> usize {
    escaped_len(s, false)
}

/// Number of bytes [`write_attr`] writes for `s`, without allocating.
pub fn escaped_attr_len(s: &str) -> usize {
    escaped_len(s, true)
}

/// Resolve one entity (the text between `&` and `;`). Supports the five
/// predefined entities and decimal/hex character references.
pub fn resolve_entity(name: &str) -> Option<char> {
    match name {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => {
            let code =
                if let Some(hex) = name.strip_prefix("#x").or_else(|| name.strip_prefix("#X")) {
                    u32::from_str_radix(hex, 16).ok()?
                } else if let Some(dec) = name.strip_prefix('#') {
                    dec.parse::<u32>().ok()?
                } else {
                    return None;
                };
            char::from_u32(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Escape text content into a fresh string: the allocating
    /// reference the length functions are checked against.
    fn escape_text(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        write_text(&mut out, s).expect("writing to a String cannot fail");
        out
    }

    /// Escape an attribute value into a fresh string (see `escape_text`).
    fn escape_attr(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        write_attr(&mut out, s).expect("writing to a String cannot fail");
        out
    }

    #[test]
    fn escapes_text() {
        assert_eq!(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
        assert_eq!(escape_text("plain"), "plain");
        assert_eq!(escape_text(r#"quote " stays"#), r#"quote " stays"#);
    }

    #[test]
    fn escapes_attr() {
        assert_eq!(escape_attr(r#"a"b<c"#), "a&quot;b&lt;c");
    }

    #[test]
    fn escaped_lens_match_their_allocating_twins() {
        for s in [
            "",
            "plain",
            "a<b&c>d",
            "ünïcode <&>",
            "\"q\"",
            "&<>\"",
            "日本語 \"引用\" & <タグ>",
            "😀&😀\"",
        ] {
            assert_eq!(escaped_text_len(s), escape_text(s).len(), "{s:?}");
            assert_eq!(escaped_attr_len(s), escape_attr(s).len(), "{s:?}");
        }
        assert_eq!(escape_attr("😀&\"é<"), "😀&amp;&quot;é&lt;");
        assert_eq!(escape_text("😀&\"é>"), "😀&amp;\"é&gt;");
    }

    #[test]
    fn entities_resolve() {
        assert_eq!(resolve_entity("amp"), Some('&'));
        assert_eq!(resolve_entity("lt"), Some('<'));
        assert_eq!(resolve_entity("gt"), Some('>'));
        assert_eq!(resolve_entity("quot"), Some('"'));
        assert_eq!(resolve_entity("apos"), Some('\''));
        assert_eq!(resolve_entity("#65"), Some('A'));
        assert_eq!(resolve_entity("#x41"), Some('A'));
        assert_eq!(resolve_entity("#x1F600"), Some('😀'));
        assert_eq!(resolve_entity("bogus"), None);
        assert_eq!(resolve_entity("#xZZ"), None);
        assert_eq!(resolve_entity("#xD800"), None, "surrogates are invalid");
    }
}
