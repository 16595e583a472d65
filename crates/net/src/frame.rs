//! The AXTR **wire** framing: what peer processes actually speak.
//!
//! The trace pipeline's `AXTR` binary format (see `axml-obs`) frames
//! trace records inside a *file*; this module reuses the same
//! length-prefixed, little-endian conventions to frame peer-to-peer
//! messages on a *stream socket*. A connection starts with a 6-byte
//! preamble, then carries self-delimiting frames in both directions:
//!
//! ```text
//! preamble   magic "AXTR" + stream kind 'W' (wire) + version 0x01
//! frame      [type u8][seq u64 LE][len u32 LE][len body bytes]
//! ```
//!
//! | type | name  | body | direction |
//! |------|-------|------|-----------|
//! | 1 | `Hello` | `u32` peer id + string name | dialer → endpoint |
//! | 2 | `Msg`   | `u32` from + `u32` to + opaque payload | dialer → endpoint |
//! | 3 | `Ack`   | `u64` FNV-1a digest + `u32` payload length | endpoint → dialer |
//! | 4 | `Bye`   | empty | dialer → endpoint |
//! | 5 | `Stats` | `u64` frames + `u64` payload bytes | endpoint → dialer |
//!
//! Strings are `u32` LE byte length + UTF-8 bytes. Every `Hello`/`Msg`
//! is acknowledged with an `Ack` echoing its sequence number plus the
//! digest and length of the payload the endpoint actually received, so
//! the sending side can prove bit-exact delivery across the process
//! boundary. `Bye` is answered with `Stats` — the endpoint's lifetime
//! counters — and then the connection closes.
//!
//! Reading uses [`Read::read_exact`] throughout, so partial reads
//! (frames arriving in arbitrary chunks) are handled transparently; a
//! stream that ends mid-frame surfaces as [`FrameError::Io`] with
//! `UnexpectedEof`, which the transport maps to a typed
//! [`NetError::Wire`](crate::NetError::Wire).

use crate::bytes::{BytesError, Cursor, PutBytes};
use std::fmt;
use std::io::{self, Read, Write};

/// The 4-byte magic shared with the AXTR trace-file format.
pub const MAGIC: [u8; 4] = *b"AXTR";

/// Stream-kind byte distinguishing wire streams (`'W'`) from trace
/// files (whose fifth byte is the trace format version, currently
/// `0x01` — never `'W'` = `0x57`).
pub const STREAM_WIRE: u8 = b'W';

/// The wire protocol version.
pub const WIRE_VERSION: u8 = 0x01;

/// Hard cap on a frame body (16 MiB): a corrupted length prefix must
/// not make a reader attempt a multi-gigabyte allocation.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Frame type bytes. Append-only, like the trace-event tags.
mod ftype {
    pub(super) const HELLO: u8 = 1;
    pub(super) const MSG: u8 = 2;
    pub(super) const ACK: u8 = 3;
    pub(super) const BYE: u8 = 4;
    pub(super) const STATS: u8 = 5;
}

/// One decoded wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Connection handshake: the dialer announces which peer this
    /// endpoint will embody.
    Hello {
        /// The peer id assigned to this endpoint.
        peer: u32,
        /// The peer's display name.
        name: String,
    },
    /// One message in flight, addressed `from → to`. The payload is
    /// opaque to the framing layer (the engine's serialized message).
    Msg {
        /// Sending peer id.
        from: u32,
        /// Receiving peer id.
        to: u32,
        /// Serialized message bytes.
        payload: Vec<u8>,
    },
    /// Receipt for a `Hello`/`Msg` with the same sequence number.
    Ack {
        /// FNV-1a 64 digest of the payload as received (`Hello` acks
        /// digest the empty payload).
        digest: u64,
        /// Payload byte length as received.
        len: u32,
    },
    /// Orderly shutdown request.
    Bye,
    /// The endpoint's lifetime counters, sent in reply to `Bye`.
    Stats {
        /// `Msg` frames received.
        frames: u64,
        /// Sum of `Msg` payload lengths received.
        payload_bytes: u64,
    },
}

/// Framing/decoding failures.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying stream failure (including `UnexpectedEof` for a
    /// stream cut mid-frame — the partial-read case).
    Io(io::Error),
    /// The 6-byte preamble was not `AXTR` + `'W'` + a known version.
    BadPreamble(String),
    /// A structurally invalid frame (unknown type, oversized or
    /// inconsistent length, invalid UTF-8 in a name).
    Malformed(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "wire i/o: {e}"),
            FrameError::BadPreamble(d) => write!(f, "bad wire preamble: {d}"),
            FrameError::Malformed(d) => write!(f, "malformed wire frame: {d}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<BytesError> for FrameError {
    fn from(e: BytesError) -> Self {
        FrameError::Malformed(e.to_string())
    }
}

/// FNV-1a 64-bit digest — the payload checksum carried by `Ack`
/// frames. Deliberately tiny and dependency-free; this is an
/// integrity *tripwire* for the differential oracle, not a
/// cryptographic MAC.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    axml_xml::symbol::fnv1a64(bytes)
}

/// Write the 6-byte connection preamble.
pub fn write_preamble(w: &mut impl Write) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&[STREAM_WIRE, WIRE_VERSION])
}

/// Read and verify the 6-byte connection preamble.
pub fn read_preamble(r: &mut impl Read) -> Result<(), FrameError> {
    let mut buf = [0u8; 6];
    r.read_exact(&mut buf)?;
    if buf[..4] != MAGIC {
        return Err(FrameError::BadPreamble("not an AXTR stream".into()));
    }
    if buf[4] != STREAM_WIRE {
        return Err(FrameError::BadPreamble(format!(
            "stream kind {:#04x} is not a wire stream (trace file?)",
            buf[4]
        )));
    }
    if buf[5] != WIRE_VERSION {
        return Err(FrameError::BadPreamble(format!(
            "wire version {} (this side speaks {WIRE_VERSION})",
            buf[5]
        )));
    }
    Ok(())
}

/// Bytes before the body: type, sequence number, body length.
const HEAD_LEN: usize = 13;

/// Encode `frame` with sequence number `seq` into a byte vector.
///
/// # Panics
///
/// Panics when the frame body exceeds [`MAX_FRAME_LEN`] — use
/// [`try_encode_frame`] on paths that carry unbounded payloads. (Before
/// this check existed, `body.len() as u32` silently truncated the
/// length prefix past 4 GiB, producing a frame every reader would
/// misparse.)
pub fn encode_frame(seq: u64, frame: &Frame) -> Vec<u8> {
    try_encode_frame(seq, frame).expect("frame body exceeds MAX_FRAME_LEN")
}

/// Encode `frame` with sequence number `seq`, rejecting bodies larger
/// than [`MAX_FRAME_LEN`] with a typed [`FrameError::Malformed`] — the
/// write-side mirror of the read-side length-cap check, so an oversized
/// payload fails at the producer instead of poisoning the stream.
pub fn try_encode_frame(seq: u64, frame: &Frame) -> Result<Vec<u8>, FrameError> {
    // One buffer: head with a zero length, body fields, then the length
    // patched in once the body is known to fit.
    let begin = |ty: u8, body_hint: usize| {
        let mut out = Vec::with_capacity(HEAD_LEN + body_hint);
        put_head(&mut out, ty, seq);
        out
    };
    let mut out;
    match frame {
        Frame::Hello { peer, name } => {
            out = begin(ftype::HELLO, 8 + name.len());
            out.put_u32(*peer);
            out.put_str(name);
        }
        Frame::Msg { from, to, payload } => {
            out = Vec::with_capacity(MSG_PAYLOAD_AT + payload.len());
            try_encode_msg_with(&mut out, seq, *from, *to, |out| {
                out.extend_from_slice(payload)
            })?;
            return Ok(out);
        }
        Frame::Ack { digest, len } => {
            out = begin(ftype::ACK, 12);
            out.put_u64(*digest);
            out.put_u32(*len);
        }
        Frame::Bye => out = begin(ftype::BYE, 0),
        Frame::Stats {
            frames,
            payload_bytes,
        } => {
            out = begin(ftype::STATS, 16);
            out.put_u64(*frames);
            out.put_u64(*payload_bytes);
        }
    }
    patch_body_len(&mut out)?;
    Ok(out)
}

/// Type, sequence number and a zero body length for [`patch_body_len`].
fn put_head(out: &mut Vec<u8>, ty: u8, seq: u64) {
    out.put_u8(ty);
    out.put_u64(seq);
    out.put_u32(0);
}

/// Patch the body length into the head of the one frame `out` holds,
/// unless the body is over [`MAX_FRAME_LEN`].
fn patch_body_len(out: &mut Vec<u8>) -> Result<(), FrameError> {
    let body_len = out.len() - HEAD_LEN;
    if body_len > MAX_FRAME_LEN as usize {
        return Err(FrameError::Malformed(format!(
            "frame body of {body_len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    out.patch_len(HEAD_LEN - 4, body_len);
    Ok(())
}

/// Where a `Msg` frame's payload starts: after the head and `from`/`to`.
pub const MSG_PAYLOAD_AT: usize = HEAD_LEN + 8;

/// Encode a `Msg` frame into `out` (emptied first) with `payload`
/// appending the payload bytes in place — byte for byte what
/// [`try_encode_frame`] makes of a [`Frame::Msg`] holding those bytes,
/// without their ever being in a vector of their own. The payload is
/// `out[MSG_PAYLOAD_AT..]`.
pub fn try_encode_msg_with(
    out: &mut Vec<u8>,
    seq: u64,
    from: u32,
    to: u32,
    payload: impl FnOnce(&mut Vec<u8>),
) -> Result<(), FrameError> {
    out.clear();
    put_head(out, ftype::MSG, seq);
    out.put_u32(from);
    out.put_u32(to);
    payload(out);
    patch_body_len(out)
}

/// Write one frame to a stream (a single `write_all` — short writes are
/// retried by the standard library until the frame is fully on the
/// wire). An oversized body surfaces as `InvalidInput`, never as a
/// truncated length prefix on the wire.
pub fn write_frame(w: &mut impl Write, seq: u64, frame: &Frame) -> io::Result<()> {
    let bytes = try_encode_frame(seq, frame)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    w.write_all(&bytes)
}

/// Read one frame from a stream. Blocks until a complete frame arrived
/// (`read_exact` absorbs partial reads); a connection closed cleanly
/// *between* frames yields `Io(UnexpectedEof)` on the type byte. A body
/// must hold exactly its declared fields — bytes left over are
/// [`FrameError::Malformed`] — except `Msg`, whose payload is the rest
/// of the body.
pub fn read_frame(r: &mut impl Read) -> Result<(u64, Frame), FrameError> {
    let mut head = [0u8; HEAD_LEN];
    r.read_exact(&mut head)?;
    let mut h = Cursor::new(&head);
    let (ty, seq, len) = (h.u8()?, h.u64()?, h.u32()? as usize);
    if len > MAX_FRAME_LEN as usize {
        return Err(FrameError::Malformed(format!(
            "frame body of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let mut c = Cursor::new(&body);
    let frame = match ty {
        ftype::HELLO => Frame::Hello {
            peer: c.u32()?,
            name: c.str()?.to_string(),
        },
        ftype::MSG => Frame::Msg {
            from: c.u32()?,
            to: c.u32()?,
            payload: c.take(c.remaining())?.to_vec(),
        },
        ftype::ACK => Frame::Ack {
            digest: c.u64()?,
            len: c.u32()?,
        },
        ftype::BYE => Frame::Bye,
        ftype::STATS => Frame::Stats {
            frames: c.u64()?,
            payload_bytes: c.u64()?,
        },
        other => return Err(FrameError::Malformed(format!("unknown frame type {other}"))),
    };
    c.finish()?;
    Ok((seq, frame))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip(frame: Frame) {
        let bytes = encode_frame(42, &frame);
        let (seq, back) = read_frame(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(back, frame);
    }

    #[test]
    fn a_msg_built_in_place_is_the_encoded_frame() {
        let mut out = b"left over from the last send".to_vec();
        try_encode_msg_with(&mut out, 9, 3, 4, |out| {
            out.extend_from_slice(b"<catalog/>")
        })
        .unwrap();
        assert_eq!(&out[MSG_PAYLOAD_AT..], b"<catalog/>");
        let frame = Frame::Msg {
            from: 3,
            to: 4,
            payload: b"<catalog/>".to_vec(),
        };
        assert_eq!(out, encode_frame(9, &frame));
        let big = |out: &mut Vec<u8>| out.resize(MSG_PAYLOAD_AT + MAX_FRAME_LEN as usize, 0);
        assert!(try_encode_msg_with(&mut out, 9, 3, 4, big).is_err());
    }

    #[test]
    fn every_frame_round_trips() {
        round_trip(Frame::Hello {
            peer: 3,
            name: "mirror-3".into(),
        });
        round_trip(Frame::Msg {
            from: 0,
            to: 1,
            payload: b"<catalog/>".to_vec(),
        });
        round_trip(Frame::Ack {
            digest: 0xDEAD_BEEF,
            len: 10,
        });
        round_trip(Frame::Bye);
        round_trip(Frame::Stats {
            frames: 7,
            payload_bytes: 1234,
        });
    }

    #[test]
    fn preamble_round_trips_and_rejects_garbage() {
        let mut buf = Vec::new();
        write_preamble(&mut buf).unwrap();
        assert_eq!(buf.len(), 6);
        read_preamble(&mut Cursor::new(&buf)).unwrap();

        assert!(matches!(
            read_preamble(&mut Cursor::new(b"NOPE\x57\x01")),
            Err(FrameError::BadPreamble(_))
        ));
        // A trace-file header (version byte where 'W' should be) is
        // detected as the wrong stream kind, not silently accepted.
        let err = read_preamble(&mut Cursor::new(b"AXTR\x01\x01")).unwrap_err();
        assert!(err.to_string().contains("trace"), "{err}");
        assert!(matches!(
            read_preamble(&mut Cursor::new(b"AXTR\x57\x7f")),
            Err(FrameError::BadPreamble(_))
        ));
    }

    #[test]
    fn truncated_frames_error_instead_of_hanging() {
        let bytes = encode_frame(
            1,
            &Frame::Msg {
                from: 0,
                to: 1,
                payload: b"payload".to_vec(),
            },
        );
        // Every strict prefix must fail with an I/O error (eof), never
        // panic and never succeed.
        for cut in 0..bytes.len() {
            let err = read_frame(&mut Cursor::new(&bytes[..cut])).unwrap_err();
            assert!(matches!(err, FrameError::Io(_)), "cut at {cut}: {err}");
        }
        let (_, ok) = read_frame(&mut Cursor::new(&bytes)).unwrap();
        assert!(matches!(ok, Frame::Msg { .. }));
    }

    #[test]
    fn absurd_length_prefix_is_rejected() {
        let mut bytes = vec![ftype::MSG];
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut Cursor::new(&bytes)).unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)), "{err}");
    }

    #[test]
    fn oversized_body_is_rejected_at_encode_time() {
        // Regression: `body.len() as u32` used to truncate silently;
        // now any body past the cap fails typed on the producer side.
        let frame = Frame::Msg {
            from: 0,
            to: 1,
            payload: vec![0u8; MAX_FRAME_LEN as usize - 8 + 1],
        };
        let err = try_encode_frame(0, &frame).unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("exceeds"), "{err}");
        let mut out = Vec::new();
        let io_err = write_frame(&mut out, 0, &frame).unwrap_err();
        assert_eq!(io_err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "nothing reaches the wire");
        // One byte under the cap still encodes and round-trips.
        let ok = Frame::Msg {
            from: 0,
            to: 1,
            payload: vec![0u8; MAX_FRAME_LEN as usize - 8],
        };
        let bytes = try_encode_frame(7, &ok).unwrap();
        let (seq, back) = read_frame(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(seq, 7);
        assert_eq!(back, ok);
    }

    #[test]
    fn unknown_type_and_bad_utf8_are_malformed() {
        let mut bytes = vec![99];
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(&bytes)).unwrap_err(),
            FrameError::Malformed(_)
        ));

        let mut body = Vec::new();
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(&[0xFF, 0xFE]);
        let mut bytes = vec![ftype::HELLO];
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&body);
        let err = read_frame(&mut Cursor::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");

        // A fixed-shape body with bytes after its declared fields is
        // malformed; `Msg` alone owns its tail.
        for frame in [
            Frame::Hello {
                peer: 3,
                name: "mirror-3".into(),
            },
            Frame::Ack { digest: 1, len: 2 },
            Frame::Bye,
            Frame::Stats {
                frames: 7,
                payload_bytes: 9,
            },
        ] {
            let mut bytes = encode_frame(5, &frame);
            bytes.push(0xAB);
            let body_len = (bytes.len() - 13) as u32;
            bytes[9..13].copy_from_slice(&body_len.to_le_bytes());
            let err = read_frame(&mut Cursor::new(&bytes)).unwrap_err();
            assert!(
                matches!(&err, FrameError::Malformed(d) if d.contains("trailing")),
                "{frame:?}: {err}"
            );
        }
        let mut bytes = encode_frame(
            5,
            &Frame::Msg {
                from: 0,
                to: 1,
                payload: b"ab".to_vec(),
            },
        );
        bytes.push(0xAB);
        bytes[9..13].copy_from_slice(&11u32.to_le_bytes());
        let (_, msg) = read_frame(&mut Cursor::new(&bytes)).unwrap();
        assert!(matches!(msg, Frame::Msg { payload, .. } if payload == [b'a', b'b', 0xAB]));
    }

    #[test]
    fn fnv_digest_is_stable_and_sensitive() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
        assert_eq!(fnv1a64(b"abc"), fnv1a64(b"abc"));
    }
}
