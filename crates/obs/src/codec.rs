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
//! variant's fields in declaration order (`TraceEvent::visit` writes
//! them, `TraceEvent::build` reads them back), each fixed-width
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
//! | [`MessageKind`](crate::kind::MessageKind) | 1 byte ([`wire_code`](crate::kind::MessageKind::wire_code)) |
//!
//! The encoding is intentionally *not* general-purpose: it knows the
//! twelve event shapes and nothing else, which keeps records a few
//! dozen bytes each and decoding allocation-free for all-numeric
//! events. It is the only trace encoding: every sink writes it, every
//! reader reads it.

use crate::trace::TraceEvent;
use axml_net::bytes::{Cursor, PutBytes};

/// The 4-byte magic at offset 0 of every binary trace file.
pub const MAGIC: [u8; 4] = *b"AXTR";

/// The current format version byte (offset 4).
pub const VERSION: u8 = 0x01;

/// The 5-byte file header: magic, then version.
pub(crate) const HEADER: [u8; 5] = [MAGIC[0], MAGIC[1], MAGIC[2], MAGIC[3], VERSION];

/// Check as much of a file header as `bytes` holds: `Ok(Some(n))` is
/// a whole valid header of `n` bytes, `Ok(None)` a proper prefix of one
/// (more bytes may still complete it), `Err` anything else.
pub(crate) fn check_header(bytes: &[u8]) -> Result<Option<usize>, String> {
    let seen = bytes.len().min(MAGIC.len());
    if bytes[..seen] != MAGIC[..seen] {
        return Err("bad magic (not an AXTR trace)".into());
    }
    match bytes.get(MAGIC.len()) {
        None => Ok(None),
        Some(&VERSION) => Ok(Some(HEADER.len())),
        Some(other) => Err(format!(
            "unsupported AXTR version {other} (this reader speaks {VERSION})"
        )),
    }
}

/// Encode one event as a complete framed record (u32 LE length prefix +
/// payload), appended to `out`.
pub(crate) fn encode_record(event: &TraceEvent, out: &mut Vec<u8>) {
    let start = out.len();
    out.put_u32(0); // patched below
    event.visit(out);
    out.patch_len(start, out.len() - start - 4);
}

/// Decode one record payload (the bytes after the length prefix).
pub(crate) fn decode_payload(payload: &[u8]) -> Result<TraceEvent, String> {
    let mut fields = Cursor::new(payload);
    let event = TraceEvent::build(&mut fields).map_err(|e| e.to_string())?;
    fields.finish().map_err(|e| e.to_string())?;
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
            e.visit(&mut buf);
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
        assert_eq!(check_header(&HEADER), Ok(Some(5)));
        assert_eq!(check_header(b""), Ok(None));
        assert_eq!(check_header(b"AXT"), Ok(None));
        assert!(check_header(b"AXE").is_err());
        assert!(check_header(b"NOPE\x01").is_err());
        assert!(check_header(b"AXTR\x7f").unwrap_err().contains("version"));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_payload(&[]).is_err());
        assert!(decode_payload(&[0]).is_err());
        assert!(decode_payload(&[99]).is_err());
        assert!(decode_payload(&[2, 1]).is_err());
        // Trailing junk after a valid payload is an error.
        let mut buf = Vec::new();
        one_of_each()[1].visit(&mut buf);
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
        e.visit(&mut buf);
        match decode_payload(&buf).unwrap() {
            TraceEvent::Delegation { at_ms, .. } => {
                assert_eq!(at_ms.to_bits(), f64::NAN.to_bits())
            }
            other => panic!("wrong variant {other:?}"),
        }
    }
}
