//! A minimal hand-rolled JSON writer **and reader** (no serde in the
//! dependency tree).
//!
//! Produces compact, valid JSON: string escaping per RFC 8259, numbers
//! rendered via Rust's shortest-roundtrip float formatting (integers
//! stay integral), `NaN`/infinities — which JSON cannot represent —
//! rendered as `null`. 64-bit counters go through [`JsonObject::num_u64`]
//! so values above 2⁵³ never round through a float.
//!
//! JSON is how *reports* leave the process ([`crate::report::RunReport`],
//! [`crate::metrics::EvalMetrics`], the benchmark ledger); traces do
//! not use it — they are `AXTR` records ([`crate::codec`]). The reader
//! side ([`parse`] → [`JsonValue`]) is for the tools and tests that read
//! those reports back. Numbers keep their raw token, so `u64::MAX`
//! survives a round trip exactly. Arrays and objects nest up to
//! 128 deep; deeper input is an error, not a stack overflow.

use std::fmt::Write;

/// Escape a string for embedding in a JSON document (without quotes).
///
/// Everything RFC 8259 *requires* escaped (`"`, `\`, C0 controls) is
/// escaped; additionally DEL, the C1 range (`U+007F`–`U+009F`) and the
/// Unicode line separators (`U+2028`/`U+2029`) are `\u`-escaped so
/// adversarial peer/service names survive log pipelines and JS `eval`-ish
/// consumers that choke on raw control characters. All other non-ASCII
/// passes through as UTF-8 (valid JSON).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20
                || (0x7f..=0x9f).contains(&(c as u32))
                || c == '\u{2028}'
                || c == '\u{2029}' =>
            {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a float as a JSON number (`null` for non-finite values).
pub fn number(x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    if x == x.trunc() && x.abs() < 9e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// Incremental JSON object builder.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, k: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        let _ = write!(self.buf, "\"{}\":", escape(k));
    }

    /// Add a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "\"{}\"", escape(v));
        self
    }

    /// Add a numeric field.
    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        self.buf.push_str(&number(v));
        self
    }

    /// Add a 64-bit unsigned integer field, emitted exactly — never
    /// routed through `f64`, so counters above 2⁵³ keep every digit.
    pub fn num_u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Add a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Add a field whose value is pre-rendered JSON (object, array, …).
    pub fn raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    /// Add an array-of-strings field.
    pub fn str_array<'a>(&mut self, k: &str, vs: impl IntoIterator<Item = &'a str>) -> &mut Self {
        let items: Vec<String> = vs
            .into_iter()
            .map(|s| format!("\"{}\"", escape(s)))
            .collect();
        self.raw(k, &format!("[{}]", items.join(",")))
    }

    /// Finish, returning `{...}`.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Render pre-rendered JSON values as an array.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let items: Vec<String> = items.into_iter().collect();
    format!("[{}]", items.join(","))
}

/// A parsed JSON value.
///
/// Numbers keep their **raw source token** so integer fields re-parse
/// exactly (`u64::MAX` does not round through `f64`); use [`JsonValue::as_u64`]
/// or [`JsonValue::as_f64`] to interpret them.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its raw token text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value as a float (`Null` reads as NaN — the writer encodes
    /// non-finite floats as `null`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            JsonValue::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as an exact unsigned 64-bit integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Look up a field of an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// How deep arrays and objects may nest. The parser recurses once per
/// level, so without a bound `[[[[…` from outside overflows the stack.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document (one value, optionally surrounded by
/// whitespace). Returns a description of the first problem on failure.
pub fn parse(src: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        src,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'[' { self.arr() } else { self.obj() };
                self.depth -= 1;
                v
            }
            Some(b'-') | Some(b'0'..=b'9') => self.num(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn num(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(format!("malformed number at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let raw = &self.src[start..self.pos];
        if raw.parse::<f64>().is_err() {
            return Err(format!("malformed number at byte {start}"));
        }
        Ok(JsonValue::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a low surrogate must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')
                                        .map_err(|_| "lone high surrogate".to_string())?;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err("invalid low surrogate".into());
                                    }
                                    let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(cp).ok_or("invalid surrogate pair")?
                                } else {
                                    return Err("lone high surrogate".into());
                                }
                            } else if (0xdc00..0xe000).contains(&hi) {
                                return Err("lone low surrogate".into());
                            } else {
                                char::from_u32(hi).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                        }
                        _ => return Err(format!("bad escape '\\{}'", esc as char)),
                    }
                }
                Some(b) if b < 0x20 => return Err("raw control character in string".into()),
                Some(_) => {
                    // Copy the plain run up to the next quote, escape or
                    // control byte. All three are ASCII, so the run is a
                    // whole-character slice of the source.
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|b| b >= 0x20 && b != b'"' && b != b'\\')
                    {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .src
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos += 4;
        Ok(v)
    }

    fn arr(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn obj(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("x\ny\t\u{1}"), "x\\ny\\t\\u0001");
        assert_eq!(escape("plain é 中"), "plain é 中");
    }

    #[test]
    fn escaping_adversarial() {
        // DEL and the C1 range must not pass through raw.
        assert_eq!(escape("\u{7f}"), "\\u007f");
        assert_eq!(escape("\u{9f}"), "\\u009f");
        // JS line separators are legal JSON but break eval-ish consumers.
        assert_eq!(escape("\u{2028}\u{2029}"), "\\u2028\\u2029");
        // Backspace / form feed use the short escapes.
        assert_eq!(escape("\u{8}\u{c}"), "\\b\\f");
        // NUL.
        assert_eq!(escape("\0"), "\\u0000");
        // Astral-plane names survive untouched.
        assert_eq!(escape("peer-𝒜-🦀"), "peer-𝒜-🦀");
    }

    #[test]
    fn adversarial_names_round_trip() {
        for name in [
            "peer\nwith\nnewlines",
            "quote\"back\\slash",
            "ctl\u{1}\u{1f}\u{7f}\u{9f}",
            "unicode é 中 🦀 \u{2028}",
            "",
            "\0\0\0",
        ] {
            let mut o = JsonObject::new();
            o.str("name", name);
            let doc = o.finish();
            let v = parse(&doc).unwrap();
            assert_eq!(v.get("name").unwrap().as_str().unwrap(), name, "{doc}");
        }
    }

    #[test]
    fn u64_exact() {
        let mut o = JsonObject::new();
        o.num_u64("bytes", u64::MAX).num_u64("zero", 0);
        let doc = o.finish();
        assert_eq!(doc, format!(r#"{{"bytes":{},"zero":0}}"#, u64::MAX));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("bytes").unwrap().as_u64(), Some(u64::MAX));
        // Would NOT survive the f64 path:
        assert_ne!(number(u64::MAX as f64), format!("{}", u64::MAX));
    }

    #[test]
    fn parser_basics() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(parse(r#"["a",1,null]"#).unwrap().as_arr().unwrap().len(), 3);
        let v = parse(r#"{"a":{"b":[1,2]},"c":"d"}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().get("b").unwrap().as_arr().unwrap()[1].as_u64(),
            Some(2)
        );
        assert_eq!(v.get("c").unwrap().as_str(), Some("d"));
    }

    #[test]
    fn parser_escapes() {
        let v = parse(r#""a\"b\\c\ndA🦀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA🦀"));
        assert!(parse(r#""\ud800""#).is_err()); // lone high surrogate
        assert!(parse(r#""\udc00""#).is_err()); // lone low surrogate
        assert!(parse(r#""\q""#).is_err());
        assert!(parse("\"raw\u{1}\"").is_err());
        // Long lines: one pass (was quadratic — per-character re-validation).
        let long = "é🦀x".repeat(300_000);
        let v = parse(&format!("\"{long}\\n\"")).unwrap();
        assert_eq!(v.as_str().map(str::len), Some(long.len() + 1));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("01").is_ok()); // lenient: leading zeros accepted
        assert!(parse("-").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Used to overflow the stack and abort the process.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn non_finite_round_trip_as_null() {
        let mut o = JsonObject::new();
        o.num("t", f64::NAN);
        let v = parse(&o.finish()).unwrap();
        assert!(v.get("t").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn numbers() {
        assert_eq!(number(3.0), "3");
        assert_eq!(number(3.25), "3.25");
        assert_eq!(number(-0.5), "-0.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn objects_and_arrays() {
        let mut o = JsonObject::new();
        o.str("name", "e1").num("n", 2.0).bool("ok", true);
        o.str_array("rules", ["R10", "R11"]);
        o.raw("inner", "{\"x\":1}");
        let s = o.finish();
        assert_eq!(
            s,
            r#"{"name":"e1","n":2,"ok":true,"rules":["R10","R11"],"inner":{"x":1}}"#
        );
        assert_eq!(array(["1".into(), "2".into()]), "[1,2]");
        assert_eq!(array(std::iter::empty()), "[]");
    }
}
