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
    pub const HELLO: u8 = 1;
    pub const MSG: u8 = 2;
    pub const ACK: u8 = 3;
    pub const BYE: u8 = 4;
    pub const STATS: u8 = 5;
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

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

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
    let (ty, body) = match frame {
        Frame::Hello { peer, name } => {
            let mut b = Vec::with_capacity(8 + name.len());
            put_u32(&mut b, *peer);
            put_u32(&mut b, name.len() as u32);
            b.extend_from_slice(name.as_bytes());
            (ftype::HELLO, b)
        }
        Frame::Msg { from, to, payload } => {
            let mut b = Vec::with_capacity(8 + payload.len());
            put_u32(&mut b, *from);
            put_u32(&mut b, *to);
            b.extend_from_slice(payload);
            (ftype::MSG, b)
        }
        Frame::Ack { digest, len } => {
            let mut b = Vec::with_capacity(12);
            put_u64(&mut b, *digest);
            put_u32(&mut b, *len);
            (ftype::ACK, b)
        }
        Frame::Bye => (ftype::BYE, Vec::new()),
        Frame::Stats {
            frames,
            payload_bytes,
        } => {
            let mut b = Vec::with_capacity(16);
            put_u64(&mut b, *frames);
            put_u64(&mut b, *payload_bytes);
            (ftype::STATS, b)
        }
    };
    if body.len() > MAX_FRAME_LEN as usize {
        return Err(FrameError::Malformed(format!(
            "frame body of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
            body.len()
        )));
    }
    let mut out = Vec::with_capacity(13 + body.len());
    out.push(ty);
    put_u64(&mut out, seq);
    put_u32(&mut out, body.len() as u32);
    out.extend_from_slice(&body);
    Ok(out)
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

fn get_u32(body: &[u8], at: usize) -> Result<u32, FrameError> {
    body.get(at..at + 4)
        .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
        .ok_or_else(|| FrameError::Malformed("body too short for u32".into()))
}

fn get_u64(body: &[u8], at: usize) -> Result<u64, FrameError> {
    body.get(at..at + 8)
        .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
        .ok_or_else(|| FrameError::Malformed("body too short for u64".into()))
}

/// Read one frame from a stream. Blocks until a complete frame arrived
/// (`read_exact` absorbs partial reads); a connection closed cleanly
/// *between* frames yields `Io(UnexpectedEof)` on the type byte.
pub fn read_frame(r: &mut impl Read) -> Result<(u64, Frame), FrameError> {
    let mut head = [0u8; 13];
    r.read_exact(&mut head)?;
    let ty = head[0];
    let seq = u64::from_le_bytes(head[1..9].try_into().unwrap());
    let len = u32::from_le_bytes(head[9..13].try_into().unwrap());
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Malformed(format!(
            "frame body of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let frame = match ty {
        ftype::HELLO => {
            let peer = get_u32(&body, 0)?;
            let nlen = get_u32(&body, 4)? as usize;
            let name = body
                .get(8..8 + nlen)
                .ok_or_else(|| FrameError::Malformed("hello name length overruns body".into()))?;
            Frame::Hello {
                peer,
                name: std::str::from_utf8(name)
                    .map_err(|_| FrameError::Malformed("hello name is not UTF-8".into()))?
                    .to_string(),
            }
        }
        ftype::MSG => {
            let from = get_u32(&body, 0)?;
            let to = get_u32(&body, 4)?;
            Frame::Msg {
                from,
                to,
                payload: body[8..].to_vec(),
            }
        }
        ftype::ACK => Frame::Ack {
            digest: get_u64(&body, 0)?,
            len: get_u32(&body, 8)?,
        },
        ftype::BYE => Frame::Bye,
        ftype::STATS => Frame::Stats {
            frames: get_u64(&body, 0)?,
            payload_bytes: get_u64(&body, 8)?,
        },
        other => return Err(FrameError::Malformed(format!("unknown frame type {other}"))),
    };
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
    }

    #[test]
    fn fnv_digest_is_stable_and_sensitive() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
        assert_eq!(fnv1a64(b"abc"), fnv1a64(b"abc"));
    }
}
