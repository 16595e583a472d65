//! The `AXTR` binary trace encoding: compact, self-describing,
//! append-friendly.
//!
//! # File layout
//!
//! ```text
//! +-------------------+----------------------------------------------+
//! | header (5 bytes)  | magic "AXTR" (0x41 0x58 0x54 0x52) + version |
//! +-------------------+----------------------------------------------+
//! | record 0          | u32 LE payload length, then the payload      |
//! | record 1          |                                              |
//! | …                 |                                              |
//! +-------------------+----------------------------------------------+
//! ```
//!
//! The current version byte is [`VERSION`] (`0x01`). Readers reject
//! other versions; writers always stamp the current one. Length-prefix
//! framing makes the format tolerant of truncated tails: a file cut
//! mid-record still yields every complete record before the cut.
//!
//! # Record payload
//!
//! One byte of event tag (1–12, [`TraceEvent::kind`] order), then the
//! variant's fields in declaration order, each fixed-width
//! little-endian:
//!
//! | field type | encoding |
//! |------------|----------|
//! | `PeerId`   | `u32` LE |
//! | `u64` / timestamps (`f64`) | 8 bytes LE (floats as IEEE-754 bits — bit-exact, NaN included) |
//! | `u8` (definition number) / `bool` | 1 byte |
//! | `usize` counts | `u32` LE |
//! | strings | `u32` LE byte length + UTF-8 bytes |
//! | `Vec<String>` | `u32` LE element count + each string |
//! | [`MessageKind`] | 1 byte ([`MessageKind::wire_code`]) |
//!
//! The encoding is intentionally *not* general-purpose: it knows the
//! twelve event shapes and nothing else, which keeps records 3–10×
//! smaller than their JSONL rendering and decoding allocation-free for
//! all-numeric events.

use crate::kind::MessageKind;
use crate::trace::{owned, FieldSink, FieldSource, TraceEvent, TraceStr};
use axml_net::bytes::{BytesError, Cursor, PutBytes};

/// The 4-byte magic at offset 0 of every binary trace file.
pub const MAGIC: [u8; 4] = *b"AXTR";

/// The current format version byte (offset 4).
pub const VERSION: u8 = 0x01;

/// The 5-byte file header: magic, then version.
pub(crate) const HEADER: [u8; 5] = [MAGIC[0], MAGIC[1], MAGIC[2], MAGIC[3], VERSION];

/// Check a file header. Returns the number of header bytes consumed.
pub(crate) fn check_header(bytes: &[u8]) -> Result<usize, String> {
    if bytes.len() < 5 {
        return Err("file shorter than the 5-byte AXTR header".into());
    }
    if bytes[..4] != MAGIC {
        return Err("bad magic (not an AXTR trace)".into());
    }
    if bytes[4] != VERSION {
        return Err(format!(
            "unsupported AXTR version {} (this reader speaks {VERSION})",
            bytes[4]
        ));
    }
    Ok(5)
}

/// The AXTR side of the field schema: each typed field is its
/// fixed-width little-endian encoding, names are not stored.
struct Fields<T>(T);

impl FieldSink for Fields<&mut Vec<u8>> {
    fn u8(&mut self, _: &'static str, v: u8) {
        self.0.put_u8(v);
    }
    fn u32(&mut self, _: &'static str, v: u32) {
        self.0.put_u32(v);
    }
    fn u64(&mut self, _: &'static str, v: u64) {
        self.0.put_u64(v);
    }
    fn f64(&mut self, _: &'static str, v: f64) {
        self.0.put_f64(v);
    }
    fn bool(&mut self, _: &'static str, v: bool) {
        self.0.put_u8(v.into());
    }
    fn str(&mut self, _: &'static str, v: &str) {
        self.0.put_str(v);
    }
    fn strs(&mut self, _: &'static str, v: &[TraceStr]) {
        self.0.put_len(v.len());
        for s in v {
            self.0.put_str(s);
        }
    }
    fn msg(&mut self, _: &'static str, v: MessageKind) {
        self.0.put_u8(v.wire_code());
    }
}

fn detail(e: BytesError) -> String {
    e.to_string()
}

impl FieldSource for Fields<Cursor<'_>> {
    fn u8(&mut self, _: &'static str) -> Result<u8, String> {
        self.0.u8().map_err(detail)
    }
    fn u32(&mut self, _: &'static str) -> Result<u32, String> {
        self.0.u32().map_err(detail)
    }
    fn u64(&mut self, _: &'static str) -> Result<u64, String> {
        self.0.u64().map_err(detail)
    }
    fn f64(&mut self, _: &'static str) -> Result<f64, String> {
        self.0.f64().map_err(detail)
    }
    fn bool(&mut self, name: &'static str) -> Result<bool, String> {
        Ok(self.u8(name)? != 0)
    }
    fn str(&mut self, _: &'static str) -> Result<TraceStr, String> {
        self.0.str().map(owned).map_err(detail)
    }
    fn strs(&mut self, name: &'static str) -> Result<Vec<TraceStr>, String> {
        // Collecting stops at the first short read, so a hostile count
        // costs no allocation up front.
        (0..self.u32(name)?).map(|_| self.str(name)).collect()
    }
    fn msg(&mut self, name: &'static str) -> Result<MessageKind, String> {
        let code = self.u8(name)?;
        MessageKind::from_wire_code(code).ok_or_else(|| format!("unknown message-kind code {code}"))
    }
}

/// Encode one event as a record payload (no length prefix): the tag
/// byte, then the fields [`TraceEvent::visit`] lists.
pub(crate) fn encode_payload(event: &TraceEvent, out: &mut Vec<u8>) {
    out.put_u8(event.tag());
    event.visit(&mut Fields(out));
}

/// Encode one event as a complete framed record (u32 LE length prefix +
/// payload), appended to `out`.
pub(crate) fn encode_record(event: &TraceEvent, out: &mut Vec<u8>) {
    let start = out.len();
    out.put_u32(0); // patched below
    encode_payload(event, out);
    out.patch_len(start, out.len() - start - 4);
}

/// Decode one record payload (the bytes after the length prefix).
pub(crate) fn decode_payload(payload: &[u8]) -> Result<TraceEvent, String> {
    let mut fields = Fields(Cursor::new(payload));
    let tag = fields.u8("tag")?;
    let event = TraceEvent::build(tag, &mut fields)?;
    fields.0.finish().map_err(detail)?;
    Ok(event)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::one_of_each;

    #[test]
    fn payload_round_trip_every_kind() {
        for e in &one_of_each() {
            let mut buf = Vec::new();
            encode_payload(e, &mut buf);
            let back = decode_payload(&buf).unwrap();
            assert_eq!(&back, e, "payload {buf:?}");
        }
    }

    #[test]
    fn record_framing() {
        let e = &one_of_each()[0];
        let mut buf = Vec::new();
        encode_record(e, &mut buf);
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        assert_eq!(len, buf.len() - 4);
        assert_eq!(&decode_payload(&buf[4..]).unwrap(), e);
    }

    #[test]
    fn header_checks() {
        assert_eq!(check_header(&HEADER), Ok(5));
        assert!(check_header(b"AXT").is_err());
        assert!(check_header(b"NOPE\x01").is_err());
        assert!(check_header(b"AXTR\x7f").unwrap_err().contains("version"));
    }

    #[test]
    fn binary_beats_jsonl_on_size() {
        let mut bin = Vec::new();
        let mut jsonl = 0usize;
        for e in &one_of_each() {
            encode_record(e, &mut bin);
            jsonl += e.to_json().len() + 1;
        }
        assert!(
            bin.len() * 2 < jsonl,
            "binary {} vs jsonl {jsonl}",
            bin.len()
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_payload(&[]).is_err());
        assert!(decode_payload(&[0]).is_err());
        assert!(decode_payload(&[99]).is_err());
        assert!(decode_payload(&[2, 1]).is_err());
        // Trailing junk after a valid payload is an error.
        let mut buf = Vec::new();
        encode_payload(&one_of_each()[1], &mut buf);
        buf.push(0xAB);
        assert!(decode_payload(&buf).unwrap_err().contains("trailing"));
        // Invalid UTF-8 inside a string field.
        let mut bad = vec![6]; // a rule event
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0xFF, 0xFE]);
        bad.push(1);
        bad.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        assert!(decode_payload(&bad).unwrap_err().contains("UTF-8"));
    }

    #[test]
    fn nan_timestamps_are_bit_exact() {
        let e = TraceEvent::Delegation {
            from: axml_xml::ids::PeerId(0),
            to: axml_xml::ids::PeerId(1),
            at_ms: f64::NAN,
        };
        let mut buf = Vec::new();
        encode_payload(&e, &mut buf);
        match decode_payload(&buf).unwrap() {
            TraceEvent::Delegation { at_ms, .. } => {
                assert_eq!(at_ms.to_bits(), f64::NAN.to_bits())
            }
            other => panic!("wrong variant {other:?}"),
        }
    }
}
