//! Decoding trace files back into [`TraceEvent`]s.
//!
//! [`TraceReader`] sniffs the format from the first bytes — `AXTR`
//! magic means the binary format of [`crate::codec`], anything starting
//! with `{` means JSON lines — and then streams events one at a time,
//! so arbitrarily large traces decode in constant memory.
//!
//! # Truncation tolerance
//!
//! Traces from killed runs end mid-record. The reader yields every
//! complete event before the cut, then exactly one
//! [`ReadError::Truncated`], then ends: the decodable prefix is never
//! lost and the tail damage is typed, not a panic. A malformed record
//! in an otherwise intact file yields [`ReadError::Malformed`] and
//! decoding continues with the next record (framing — line breaks or
//! length prefixes — is unaffected by one bad payload).

use crate::codec;
use crate::trace::TraceEvent;
use axml_net::bytes::Cursor;
use std::fmt;
use std::io::{self, BufRead, Read};

/// Which encoding a trace file uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line ([`crate::sink::JsonlSink`]).
    Jsonl,
    /// The `AXTR` length-prefixed binary format
    /// ([`crate::sink::BinSink`]).
    Binary,
}

impl fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TraceFormat::Jsonl => "jsonl",
            TraceFormat::Binary => "binary",
        })
    }
}

/// A decoding failure.
#[derive(Debug)]
pub enum ReadError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The file does not start like any known trace format.
    BadHeader(String),
    /// The file ends mid-record — typical of a killed run. Every event
    /// before the cut was already yielded; nothing follows this error.
    Truncated {
        /// Index of the record that was cut off.
        record: u64,
        /// What exactly was missing.
        detail: String,
    },
    /// A complete record failed to decode; decoding continues after it.
    Malformed {
        /// Index of the bad record.
        record: u64,
        /// What was wrong with it.
        detail: String,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "trace I/O error: {e}"),
            ReadError::BadHeader(d) => write!(f, "unrecognized trace file: {d}"),
            ReadError::Truncated { record, detail } => {
                write!(f, "trace truncated at record {record}: {detail}")
            }
            ReadError::Malformed { record, detail } => {
                write!(f, "malformed trace record {record}: {detail}")
            }
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Largest accepted record — a binary payload or a JSONL line — in
/// bytes (16 MiB). Real records are a few dozen bytes; anything larger
/// means corruption, and the cap keeps a corrupt length prefix or a
/// newline-free stream from forcing a giant allocation.
const MAX_RECORD_LEN: usize = 16 << 20;

/// The one piece of framing code: bytes in (in any chunking), whole
/// records out. It sniffs the header, then cuts JSONL lines or
/// length-prefixed AXTR records off the front of its buffer and decodes
/// them. [`FollowReader`] feeds it as bytes arrive, [`TraceReader`]
/// until end of input, so both see the same records and the same errors
/// on the same bytes.
#[derive(Default)]
struct Splitter {
    /// Bytes received; `buf[..start]` is already consumed.
    buf: Vec<u8>,
    start: usize,
    /// Pending bytes already searched for a newline, so a long line
    /// arriving in many chunks is scanned once, not once per chunk.
    scanned: usize,
    format: Option<TraceFormat>,
    record: u64,
}

impl Splitter {
    /// Read once from `source` into the buffer; returns the byte count
    /// (0 = end of input for now).
    fn fill(&mut self, source: &mut impl Read) -> io::Result<usize> {
        let mut chunk = [0u8; 8192];
        let n = source.read(&mut chunk)?;
        self.buf.drain(..self.start);
        self.start = 0;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    fn pending(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// Sniff the format once enough bytes are buffered; `Ok(None)`
    /// means "need more". At `eof` a cut header is typed instead.
    fn sniff(&mut self, eof: bool) -> Result<Option<TraceFormat>, ReadError> {
        let head = self.pending();
        if self.format.is_some() || head.is_empty() {
            return Ok(self.format);
        }
        if head[0] == b'{' {
            self.format = Some(TraceFormat::Jsonl);
        } else if !codec::MAGIC.starts_with(&head[..head.len().min(4)]) {
            return Err(ReadError::BadHeader(
                "neither AXTR magic nor a JSON line".into(),
            ));
        } else if head.len() >= 5 {
            self.start += codec::check_header(head).map_err(ReadError::BadHeader)?;
            self.format = Some(TraceFormat::Binary);
        } else if eof {
            return Err(ReadError::Truncated {
                record: 0,
                detail: format!("AXTR header cut after {} of 5 bytes", head.len()),
            });
        }
        Ok(self.format)
    }

    /// Cut the next complete record off the buffer, if one is there:
    /// `(consumed bytes, record bytes)`. Exceeding the cap is fatal —
    /// framing cannot be trusted past it.
    fn split(&mut self, format: TraceFormat) -> Result<Option<(usize, &[u8])>, ReadError> {
        let pending = &self.buf[self.start..];
        let record = self.record;
        let over_cap = |what: &str| ReadError::Malformed {
            record,
            detail: format!("{what} exceeds the {MAX_RECORD_LEN}-byte cap"),
        };
        match format {
            TraceFormat::Jsonl => {
                let window = &pending[..pending.len().min(MAX_RECORD_LEN + 1)];
                let newline = find_newline(&window[self.scanned..]);
                match newline.map(|i| self.scanned + i) {
                    Some(nl) => {
                        self.scanned = 0;
                        Ok(Some((nl + 1, &pending[..nl])))
                    }
                    None if pending.len() > MAX_RECORD_LEN => Err(over_cap("line")),
                    None => {
                        self.scanned = window.len();
                        Ok(None)
                    }
                }
            }
            TraceFormat::Binary => {
                let mut c = Cursor::new(pending);
                let Ok(len) = c.u32() else { return Ok(None) };
                if len as usize > MAX_RECORD_LEN {
                    return Err(over_cap(&format!("record length {len}")));
                }
                Ok(c.take(len as usize).ok().map(|p| (4 + p.len(), p)))
            }
        }
    }

    /// Decode the next record. [`FollowStep::Pending`] means "no
    /// complete record buffered"; an `Err` is fatal to the stream.
    fn next(&mut self) -> Result<FollowStep, ReadError> {
        let Some(format) = self.sniff(false)? else {
            return Ok(FollowStep::Pending);
        };
        loop {
            let Some((consumed, bytes)) = self.split(format)? else {
                return Ok(FollowStep::Pending);
            };
            let decoded = decode(format, bytes);
            self.start += consumed;
            let Some(decoded) = decoded else { continue }; // blank line
            let record = self.record;
            self.record += 1;
            return Ok(match decoded {
                Ok(e) => FollowStep::Event(e),
                Err(detail) => FollowStep::Malformed { record, detail },
            });
        }
    }

    /// The input is over: account for what [`Splitter::next`] left
    /// behind. A clean boundary is `Ok(None)`; a final complete JSONL
    /// line missing only its newline decodes; anything else — a cut
    /// header, a torn binary record, a half-written line — is
    /// [`ReadError::Truncated`].
    fn finish(mut self) -> Result<Option<TraceEvent>, ReadError> {
        let format = self.sniff(true)?;
        let (tail, record) = (self.pending(), self.record);
        if tail.is_empty() {
            return Ok(None);
        }
        if format == Some(TraceFormat::Binary) {
            return Err(ReadError::Truncated {
                record,
                detail: format!("{} bytes of a partial record remain", tail.len()),
            });
        }
        decode(TraceFormat::Jsonl, tail)
            .transpose()
            .map_err(|detail| ReadError::Truncated {
                record,
                detail: format!("final line incomplete: {detail}"),
            })
    }
}

/// Index of the first `\n`. `BufRead::skip_until` is the byte search
/// std vectorises; a `position` scan costs several times more per line.
fn find_newline(hay: &[u8]) -> Option<usize> {
    let mut rest = hay;
    let skipped = rest.skip_until(b'\n').ok()?;
    (hay[..skipped].last() == Some(&b'\n')).then(|| skipped - 1)
}

/// Decode one framed record; `None` for a blank JSONL line. Invalid
/// UTF-8 in a line is replaced, not fatal: the line then fails to parse
/// and is reported like any other malformed record.
fn decode(format: TraceFormat, bytes: &[u8]) -> Option<Result<TraceEvent, String>> {
    match format {
        TraceFormat::Binary => Some(codec::decode_payload(bytes)),
        TraceFormat::Jsonl => {
            let text = String::from_utf8_lossy(bytes);
            let line = text.trim();
            (!line.is_empty()).then(|| TraceEvent::from_json(line))
        }
    }
}

/// A streaming decoder over either trace format.
///
/// Iterate it for `Result<TraceEvent, ReadError>` items:
///
/// ```
/// use axml_obs::{BinSink, TraceReader, TraceSink, TraceEvent, SharedBuf};
/// use axml_xml::ids::PeerId;
/// let buf = SharedBuf::new();
/// let mut sink = BinSink::new(buf.clone());
/// sink.record(TraceEvent::Delegation { from: PeerId(0), to: PeerId(1), at_ms: 1.0 });
/// sink.flush().unwrap();
/// let events: Vec<TraceEvent> = TraceReader::new(&buf.bytes()[..])
///     .unwrap()
///     .collect::<Result<_, _>>()
///     .unwrap();
/// assert_eq!(events.len(), 1);
/// ```
pub struct TraceReader<R: Read> {
    source: R,
    /// `None` once the stream ended or failed fatally.
    split: Option<Splitter>,
    format: TraceFormat,
}

impl TraceReader<std::fs::File> {
    /// Open a trace file and sniff its format.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, ReadError> {
        Self::new(std::fs::File::open(path)?)
    }
}

/// A blocking read: retry interrupted calls, 0 only at end of input.
fn fill_blocking(split: &mut Splitter, source: &mut impl Read) -> io::Result<usize> {
    loop {
        match split.fill(source) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            done => return done,
        }
    }
}

impl<R: Read> TraceReader<R> {
    /// Wrap a reader, sniffing the format from the first bytes. An
    /// empty input is a valid (JSONL) trace with no events.
    pub fn new(mut source: R) -> Result<Self, ReadError> {
        let mut split = Splitter::default();
        let format = loop {
            if let Some(format) = split.sniff(false)? {
                break format;
            }
            if fill_blocking(&mut split, &mut source)? == 0 {
                break split.sniff(true)?.unwrap_or(TraceFormat::Jsonl);
            }
        };
        Ok(Self {
            source,
            split: Some(split),
            format,
        })
    }

    /// The sniffed format.
    pub fn format(&self) -> TraceFormat {
        self.format
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceEvent, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        let split = self.split.as_mut()?;
        let fatal = loop {
            match split.next() {
                Ok(FollowStep::Event(e)) => return Some(Ok(e)),
                Ok(FollowStep::Malformed { record, detail }) => {
                    return Some(Err(ReadError::Malformed { record, detail }))
                }
                Ok(FollowStep::Pending) => {}
                Err(e) => break e,
            }
            match fill_blocking(split, &mut self.source) {
                Ok(0) => return self.split.take()?.finish().transpose(),
                Ok(_) => {}
                Err(e) => break e.into(),
            }
        };
        self.split = None;
        Some(Err(fatal))
    }
}

/// One step of a [`FollowReader`] poll.
#[derive(Debug)]
pub enum FollowStep {
    /// A complete event decoded from newly arrived bytes.
    Event(TraceEvent),
    /// A complete record that failed to decode — skippable, exactly
    /// like [`ReadError::Malformed`] in batch mode.
    Malformed {
        /// Index of the bad record.
        record: u64,
        /// What was wrong with it.
        detail: String,
    },
    /// No complete record is available right now. Check
    /// [`FollowReader::hit_eof`] to see whether the source reported
    /// end-of-data (a file: caught up, poll again later; a socket:
    /// the writer closed, call [`FollowReader::finish`]).
    Pending,
}

/// An incremental decoder for a *growing* trace: a file another process
/// is still appending to, or a live socket fed by
/// [`crate::socket_sink::SocketSink`].
///
/// Unlike [`TraceReader`] — which treats end-of-input as the end of the
/// trace and types the damage — a `FollowReader` treats end-of-input as
/// *"no more bytes yet"*: partial records stay buffered until the rest
/// arrives. [`FollowReader::poll`] never blocks beyond the underlying
/// reader's own blocking behavior (set a read timeout on sockets;
/// `WouldBlock`/`TimedOut` are absorbed as [`FollowStep::Pending`]),
/// and never panics on torn writes: a mid-record cut simply stays
/// pending, and [`FollowReader::finish`] types the leftover tail as
/// [`ReadError::Truncated`].
pub struct FollowReader<R: Read> {
    source: R,
    split: Splitter,
    hit_eof: bool,
    /// A fatal decode error happened; the stream is dead.
    failed: bool,
}

impl FollowReader<std::fs::File> {
    /// Follow a trace file from its beginning. The file may still be
    /// empty — the format is sniffed lazily as bytes arrive.
    pub fn open(path: impl AsRef<std::path::Path>) -> io::Result<Self> {
        Ok(Self::new(std::fs::File::open(path)?))
    }
}

impl<R: Read> FollowReader<R> {
    /// Follow `source`. Nothing is read until the first poll.
    pub fn new(source: R) -> Self {
        Self {
            source,
            split: Splitter::default(),
            hit_eof: false,
            failed: false,
        }
    }

    /// The sniffed format (`None` until enough bytes arrived).
    pub fn format(&self) -> Option<TraceFormat> {
        self.split.format
    }

    /// Whether the most recent read from the source returned 0 bytes.
    /// For a file this means "caught up with the writer" (cleared as
    /// soon as a later poll reads fresh bytes); for a socket it means
    /// the peer closed the connection.
    pub fn hit_eof(&self) -> bool {
        self.hit_eof
    }

    /// Try to decode the next record; pulls fresh bytes whenever the
    /// buffer runs dry. `WouldBlock`/`TimedOut` (a socket read timeout
    /// expiring) count as "nothing available", not errors. Fatal errors
    /// ([`ReadError::Io`] on a hard read failure,
    /// [`ReadError::BadHeader`], a record past the size cap) poison the
    /// reader: every later poll returns `Pending` with
    /// [`FollowReader::hit_eof`] set.
    pub fn poll(&mut self) -> Result<FollowStep, ReadError> {
        if self.failed {
            self.hit_eof = true;
            return Ok(FollowStep::Pending);
        }
        loop {
            match self.split.next() {
                Ok(FollowStep::Pending) => {}
                Ok(step) => return Ok(step),
                Err(e) => {
                    self.failed = true;
                    return Err(e);
                }
            }
            match self.split.fill(&mut self.source) {
                Ok(n) => {
                    self.hit_eof = n == 0;
                    if n == 0 {
                        return Ok(FollowStep::Pending);
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    return Ok(FollowStep::Pending)
                }
                Err(e) => {
                    self.failed = true;
                    return Err(e.into());
                }
            }
        }
    }

    /// Declare the stream over (the writer exited, the socket closed)
    /// and account for the tail, once [`FollowReader::poll`] has
    /// returned `Pending`. A clean boundary returns `Ok(None)`; a final
    /// *complete* JSONL line missing only its newline decodes and is
    /// returned; anything else — a cut header, a torn binary record, a
    /// half-written line — is a typed [`ReadError::Truncated`].
    pub fn finish(self) -> Result<Option<TraceEvent>, ReadError> {
        self.split.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{BinSink, JsonlSink, SharedBuf};
    use crate::trace::tests::one_of_each;
    use crate::trace::TraceSink;

    fn jsonl_bytes() -> Vec<u8> {
        let buf = SharedBuf::new();
        let mut sink = JsonlSink::new(buf.clone());
        for e in one_of_each() {
            sink.record(e);
        }
        sink.flush().unwrap();
        buf.bytes()
    }

    fn bin_bytes() -> Vec<u8> {
        let buf = SharedBuf::new();
        let mut sink = BinSink::new(buf.clone());
        for e in one_of_each() {
            sink.record(e);
        }
        sink.flush().unwrap();
        buf.bytes()
    }

    #[test]
    fn decodes_both_formats() {
        for (bytes, format) in [
            (jsonl_bytes(), TraceFormat::Jsonl),
            (bin_bytes(), TraceFormat::Binary),
        ] {
            let r = TraceReader::new(&bytes[..]).unwrap();
            assert_eq!(r.format(), format);
            let events: Vec<_> = r.collect::<Result<_, _>>().unwrap();
            assert_eq!(events, one_of_each(), "{format}");
        }
    }

    #[test]
    fn empty_input_is_an_empty_trace() {
        let mut r = TraceReader::new(&b""[..]).unwrap();
        assert!(r.next().is_none());
    }

    #[test]
    fn rejects_alien_files() {
        assert!(matches!(
            TraceReader::new(&b"PK\x03\x04zipzip"[..]),
            Err(ReadError::BadHeader(_))
        ));
        assert!(matches!(
            TraceReader::new(&b"AXTR\x63"[..]),
            Err(ReadError::BadHeader(_))
        ));
        // A bare truncated magic is a bad header, not a crash.
        assert!(TraceReader::new(&b"AXT"[..]).is_err());
    }

    #[test]
    fn binary_truncation_yields_prefix_then_typed_error() {
        let bytes = bin_bytes();
        // Cut the file inside the last record's payload.
        let full: Vec<_> = TraceReader::new(&bytes[..]).unwrap().collect();
        assert_eq!(full.len(), one_of_each().len());
        let cut = bytes.len() - 11;
        let items: Vec<_> = TraceReader::new(&bytes[..cut]).unwrap().collect();
        let (ok, errs): (Vec<_>, Vec<_>) = items.into_iter().partition(Result::is_ok);
        assert_eq!(
            ok.len(),
            one_of_each().len() - 1,
            "all complete records decode"
        );
        assert_eq!(errs.len(), 1, "exactly one tail error");
        let last = (one_of_each().len() - 1) as u64;
        assert!(
            matches!(errs[0], Err(ReadError::Truncated { record, .. }) if record == last),
            "{:?}",
            errs[0]
        );
    }

    #[test]
    fn binary_truncation_inside_length_prefix() {
        let bytes = bin_bytes();
        // Find the start of record 1 and cut 2 bytes into its prefix.
        let rec0_len = u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
        let cut = 5 + 4 + rec0_len + 2;
        let items: Vec<_> = TraceReader::new(&bytes[..cut]).unwrap().collect();
        assert_eq!(items.len(), 2);
        assert!(items[0].is_ok());
        assert!(matches!(
            items[1],
            Err(ReadError::Truncated { record: 1, .. })
        ));
    }

    #[test]
    fn jsonl_truncation_yields_prefix_then_typed_error() {
        let bytes = jsonl_bytes();
        let cut = bytes.len() - 25; // mid-way through the last line
        let items: Vec<_> = TraceReader::new(&bytes[..cut]).unwrap().collect();
        let (ok, errs): (Vec<_>, Vec<_>) = items.into_iter().partition(Result::is_ok);
        assert_eq!(ok.len(), one_of_each().len() - 1);
        assert_eq!(errs.len(), 1);
        assert!(matches!(errs[0], Err(ReadError::Truncated { .. })));
    }

    #[test]
    fn jsonl_missing_final_newline_still_decodes() {
        let mut bytes = jsonl_bytes();
        assert_eq!(bytes.pop(), Some(b'\n'));
        let events: Vec<_> = TraceReader::new(&bytes[..])
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(events.len(), one_of_each().len());
    }

    #[test]
    fn jsonl_malformed_line_is_skippable() {
        let mut bytes = jsonl_bytes();
        let insert_at = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        bytes.splice(
            insert_at..insert_at,
            b"{\"kind\":\"martian\"}\n".iter().copied(),
        );
        let items: Vec<_> = TraceReader::new(&bytes[..]).unwrap().collect();
        assert_eq!(items.len(), one_of_each().len() + 1);
        assert!(matches!(
            items[1],
            Err(ReadError::Malformed { record: 1, .. })
        ));
        assert_eq!(
            items.iter().filter(|i| i.is_ok()).count(),
            one_of_each().len(),
            "rest decode"
        );
    }

    #[test]
    fn binary_absurd_length_prefix_is_malformed() {
        let mut bytes = codec::HEADER.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        let items: Vec<_> = TraceReader::new(&bytes[..]).unwrap().collect();
        assert_eq!(items.len(), 1);
        assert!(matches!(items[0], Err(ReadError::Malformed { .. })));
    }

    #[test]
    fn lossless_jsonl_binary_round_trip() {
        // JSONL → events → binary → events → JSONL: both renderings and
        // both event streams must agree.
        let via_jsonl: Vec<TraceEvent> = TraceReader::new(&jsonl_bytes()[..])
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        let buf = SharedBuf::new();
        let mut sink = BinSink::new(buf.clone());
        for e in &via_jsonl {
            sink.record(e.clone());
        }
        sink.flush().unwrap();
        let via_binary: Vec<TraceEvent> = TraceReader::new(&buf.bytes()[..])
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(via_jsonl, via_binary);
        let jsonl_again: Vec<String> = via_binary.iter().map(TraceEvent::to_json).collect();
        let jsonl_orig: Vec<String> = one_of_each().iter().map(TraceEvent::to_json).collect();
        assert_eq!(jsonl_again, jsonl_orig);
    }
}
