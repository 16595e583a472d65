//! Decoding trace files back into [`TraceEvent`]s.
//!
//! A trace is the `AXTR` format of [`crate::codec`]: a 5-byte header,
//! then length-prefixed records. [`TraceReader`] streams the events of
//! a finished file one at a time, so arbitrarily large traces decode in
//! constant memory; [`FollowReader`] does the same for a trace that is
//! still growing. Both run the same framing code over the same read
//! loop, so they report the same records and the same errors on the
//! same bytes.
//!
//! # Truncation tolerance
//!
//! Traces from killed runs end mid-record. The reader yields every
//! complete event before the cut, then exactly one
//! [`ReadError::Truncated`], then ends: the decodable prefix is never
//! lost and the tail damage is typed, not a panic. A malformed record
//! in an otherwise intact file yields [`ReadError::Malformed`] and
//! decoding continues with the next record (the length prefixes that
//! frame records are unaffected by one bad payload).

use crate::codec;
use crate::trace::TraceEvent;
use axml_net::bytes::Cursor;
use std::fmt;
use std::io::{self, Read};

/// A decoding failure.
#[derive(Debug)]
pub enum ReadError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The file does not start with the `AXTR` header this reader
    /// speaks (wrong magic, or an unknown version byte).
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

/// Largest accepted record payload in bytes (16 MiB). Real records are
/// a few dozen bytes; anything larger means corruption, and the cap
/// keeps a corrupt length prefix from forcing a giant allocation.
const MAX_RECORD_LEN: usize = 16 << 20;

/// The one piece of framing code: bytes in (in any chunking), whole
/// records out. It checks the header, then cuts length-prefixed records
/// off the front of its buffer and decodes them.
#[derive(Default)]
struct Splitter {
    /// Bytes received; `buf[..start]` is already consumed.
    buf: Vec<u8>,
    start: usize,
    header_done: bool,
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

    /// Consume the header once all of it is buffered; `Ok(false)` means
    /// "need more bytes". Bytes that cannot begin a header are rejected
    /// as soon as they are seen.
    fn header(&mut self) -> Result<bool, ReadError> {
        if !self.header_done {
            let checked = codec::check_header(self.pending()).map_err(ReadError::BadHeader)?;
            if let Some(len) = checked {
                self.start += len;
                self.header_done = true;
            }
        }
        Ok(self.header_done)
    }

    /// Decode the next record. [`FollowStep::Pending`] means "no
    /// complete record buffered"; an `Err` is fatal to the stream — a
    /// length past the cap means framing cannot be trusted from here on.
    fn next(&mut self) -> Result<FollowStep, ReadError> {
        if !self.header()? {
            return Ok(FollowStep::Pending);
        }
        let record = self.record;
        let mut pending = Cursor::new(self.pending());
        let Ok(len) = pending.u32() else {
            return Ok(FollowStep::Pending);
        };
        if len as usize > MAX_RECORD_LEN {
            return Err(ReadError::Malformed {
                record,
                detail: format!("record length {len} exceeds the {MAX_RECORD_LEN}-byte cap"),
            });
        }
        let Ok(payload) = pending.take(len as usize) else {
            return Ok(FollowStep::Pending);
        };
        let decoded = codec::decode_payload(payload);
        self.start += 4 + payload.len();
        self.record += 1;
        Ok(match decoded {
            Ok(e) => FollowStep::Event(e),
            Err(detail) => FollowStep::Malformed { record, detail },
        })
    }

    /// The input is over: account for what [`Splitter::next`] left
    /// behind. A clean boundary (an empty input included) is `Ok`;
    /// anything else — a cut header, a torn record — is
    /// [`ReadError::Truncated`].
    fn finish(self) -> Result<(), ReadError> {
        let tail = self.pending().len();
        let detail = match (tail, self.header_done) {
            (0, _) => return Ok(()),
            (_, false) => format!(
                "AXTR header cut after {tail} of {} bytes",
                codec::HEADER.len()
            ),
            (_, true) => format!("{tail} bytes of a partial record remain"),
        };
        Err(ReadError::Truncated {
            record: self.record,
            detail,
        })
    }
}

/// A streaming decoder over a finished trace: a [`FollowReader`] driven
/// to the end of its input.
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
///
/// End of input is the end of the trace, so the source should be one
/// that ends (a file, a byte slice): on a source that reports "no bytes
/// yet" (`WouldBlock`, a read timeout) the iterator keeps asking.
pub struct TraceReader<R: Read> {
    /// `None` once the stream ended or failed fatally.
    follow: Option<FollowReader<R>>,
}

impl TraceReader<std::fs::File> {
    /// Open a trace file and check its header.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, ReadError> {
        Self::new(std::fs::File::open(path)?)
    }
}

impl<R: Read> TraceReader<R> {
    /// Wrap a reader and check the header, so that a file that is not a
    /// trace fails here and not at the first event. An empty input is a
    /// valid trace with no events.
    pub fn new(source: R) -> Result<Self, ReadError> {
        let mut follow = FollowReader::new(source);
        while !follow.split.header()? {
            follow.fill()?;
            if follow.hit_eof {
                follow.finish()?;
                return Ok(Self { follow: None });
            }
        }
        Ok(Self {
            follow: Some(follow),
        })
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceEvent, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        let follow = self.follow.as_mut()?;
        loop {
            match follow.poll() {
                Ok(FollowStep::Event(e)) => return Some(Ok(e)),
                Ok(FollowStep::Malformed { record, detail }) => {
                    return Some(Err(ReadError::Malformed { record, detail }))
                }
                Ok(FollowStep::Pending) if follow.hit_eof => {
                    return self.follow.take()?.finish().err().map(Err)
                }
                Ok(FollowStep::Pending) => {}
                Err(fatal) => {
                    self.follow = None;
                    return Some(Err(fatal));
                }
            }
        }
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
/// [`crate::sink::BinSink::connect`].
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
    /// empty — the header is checked as its bytes arrive.
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

    /// Whether the most recent read from the source returned 0 bytes.
    /// For a file this means "caught up with the writer" (cleared as
    /// soon as a later poll reads fresh bytes); for a socket it means
    /// the peer closed the connection.
    pub fn hit_eof(&self) -> bool {
        self.hit_eof
    }

    /// Read once from the source; returns whether bytes arrived.
    /// `WouldBlock`/`TimedOut` (a socket read timeout expiring) and
    /// `Interrupted` count as "nothing yet", not errors; a hard read
    /// failure poisons the reader.
    fn fill(&mut self) -> Result<bool, ReadError> {
        match self.split.fill(&mut self.source) {
            Ok(n) => {
                self.hit_eof = n == 0;
                Ok(n > 0)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(false)
            }
            Err(e) => {
                self.failed = true;
                Err(e.into())
            }
        }
    }

    /// Try to decode the next record; pulls fresh bytes whenever the
    /// buffer runs dry. Fatal errors ([`ReadError::Io`] on a hard read
    /// failure, [`ReadError::BadHeader`], a record past the size cap)
    /// poison the reader: every later poll returns `Pending` with
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
            if !self.fill()? {
                return Ok(FollowStep::Pending);
            }
        }
    }

    /// Declare the stream over (the writer exited, the socket closed)
    /// and account for the tail, once [`FollowReader::poll`] has
    /// returned `Pending`. A clean boundary is `Ok`; anything else — a
    /// cut header, a torn record — is a typed [`ReadError::Truncated`].
    pub fn finish(self) -> Result<(), ReadError> {
        self.split.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{BinSink, SharedBuf};
    use crate::trace::tests::one_of_each;
    use crate::trace::TraceSink;

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
    fn decodes_what_the_sink_wrote() {
        let events: Vec<_> = TraceReader::new(&bin_bytes()[..])
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(events, one_of_each());
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
        // What used to be the other trace format is alien too.
        assert!(matches!(
            TraceReader::new(&b"{\"kind\":\"delegation\"}\n"[..]),
            Err(ReadError::BadHeader(_))
        ));
        // A bare truncated magic is a cut header, not a crash.
        assert!(matches!(
            TraceReader::new(&b"AXT"[..]),
            Err(ReadError::Truncated { record: 0, .. })
        ));
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
    fn malformed_record_is_skippable() {
        // A well-framed record with an unknown tag, spliced in after
        // record 0: it is reported, and every later record still decodes.
        let mut bytes = bin_bytes();
        let insert_at = 5 + 4 + u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
        bytes.splice(insert_at..insert_at, [1, 0, 0, 0, 99]);
        let items: Vec<_> = TraceReader::new(&bytes[..]).unwrap().collect();
        assert_eq!(items.len(), one_of_each().len() + 1);
        assert!(matches!(
            items[1],
            Err(ReadError::Malformed { record: 1, .. })
        ));
        let decoded: Vec<_> = items.into_iter().filter_map(Result::ok).collect();
        assert_eq!(decoded, one_of_each(), "rest decode");
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
}
