//! Streaming trace sinks: events out of the process as they happen.
//!
//! [`BinSink`] writes the `AXTR` format of [`crate::codec`] — versioned
//! header + length-prefixed records — through an internal
//! [`BufWriter`], so long or continuous runs stream incrementally and
//! never hold the whole trace in memory. It flushes on
//! [`TraceSink::flush`], on [`Drop`] (best effort) and on a consuming
//! [`BinSink::finish`] that also returns the writer and the first
//! deferred I/O error, if any.
//!
//! One writer serves files ([`BinSink::create`]) and live consumers
//! ([`BinSink::connect`], a TCP stream such as `axml-top --listen`
//! accepts), on the recording thread. A consumer that stalls therefore
//! holds the recording thread at the next full buffer or flush, as a
//! slow disk does for a file.
//!
//! I/O errors are *deferred*: `record` stays infallible (it is called
//! from the evaluator's hot path), the first error is stashed, later
//! records become no-ops, and the error surfaces from `flush`/`finish`.
//! A consumer that hangs up is such an error; there is no reconnect.
//!
//! [`FanoutSink`] tees one event stream into several sinks;
//! [`SharedBuf`] is an `Rc`-shared in-memory writer for tests and
//! examples that need the encoded bytes back from a boxed sink.

use crate::codec;
use crate::trace::{TraceEvent, TraceSink};
use std::cell::RefCell;
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::rc::Rc;

/// A sink writing the `AXTR` binary format (see [`crate::codec`]).
pub struct BinSink<W: Write> {
    /// `None` once [`BinSink::finish`] took the writer.
    writer: Option<BufWriter<W>>,
    err: Option<io::Error>,
    written: u64,
    scratch: Vec<u8>,
}

impl<W: Write> BinSink<W> {
    /// Stream events into `writer`; the versioned header is written
    /// immediately.
    pub fn new(writer: W) -> Self {
        let mut writer = BufWriter::new(writer);
        let err = writer.write_all(&codec::HEADER).err();
        Self {
            writer: Some(writer),
            err,
            written: 0,
            scratch: Vec::with_capacity(64),
        }
    }

    /// Events successfully encoded so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flush and return the writer, surfacing any deferred I/O error.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush()?;
        let w = self.writer.take().expect("finish consumes the sink");
        w.into_inner().map_err(|e| e.into_error())
    }
}

impl BinSink<std::fs::File> {
    /// Create (truncate) `path` and stream binary records into it.
    pub fn create(path: impl AsRef<std::path::Path>) -> io::Result<Self> {
        Ok(Self::new(std::fs::File::create(path)?))
    }
}

impl BinSink<TcpStream> {
    /// Connect to a live consumer at `addr` and stream binary records to
    /// it, with `TCP_NODELAY` set so a flush leaves at once. Nobody
    /// listening fails here.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self::new(stream))
    }
}

impl<W: Write> TraceSink for BinSink<W> {
    fn record(&mut self, event: TraceEvent) {
        if self.err.is_some() {
            return;
        }
        let Some(w) = self.writer.as_mut() else {
            return;
        };
        self.scratch.clear();
        codec::encode_record(&event, &mut self.scratch);
        match w.write_all(&self.scratch) {
            Ok(()) => self.written += 1,
            Err(e) => self.err = Some(e),
        }
    }

    /// Surface the deferred error, if any, else flush the writer.
    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        match self.writer.as_mut() {
            Some(w) => w.flush(),
            None => Ok(()),
        }
    }
}

impl<W: Write> Drop for BinSink<W> {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// A sink that tees every event into several child sinks.
///
/// `flush` flushes all children and reports the first error; `record`
/// clones the event for every child past the first.
#[derive(Default)]
pub struct FanoutSink {
    sinks: Vec<Box<dyn TraceSink>>,
}

impl FanoutSink {
    /// An empty fan-out (records go nowhere until children are added).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a child sink, builder-style.
    pub fn with(mut self, sink: impl TraceSink + 'static) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Add a child sink.
    pub fn push(&mut self, sink: Box<dyn TraceSink>) {
        self.sinks.push(sink);
    }
}

impl TraceSink for FanoutSink {
    fn record(&mut self, event: TraceEvent) {
        let Some((last, rest)) = self.sinks.split_last_mut() else {
            return;
        };
        for sink in rest {
            sink.record(event.clone());
        }
        last.record(event);
    }

    fn flush(&mut self) -> io::Result<()> {
        let mut first_err = None;
        for sink in &mut self.sinks {
            if let Err(e) = sink.flush() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// An `Rc`-shared growable byte buffer implementing [`Write`].
///
/// Hand one clone to a [`BinSink`] that disappears into a
/// `Box<dyn TraceSink>`, keep the other, and read the encoded bytes
/// back after the run — the trick tests and examples use since boxed
/// sinks cannot be downcast.
#[derive(Clone, Default)]
pub struct SharedBuf {
    buf: Rc<RefCell<Vec<u8>>>,
}

impl SharedBuf {
    /// An empty shared buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the bytes written so far.
    pub fn bytes(&self) -> Vec<u8> {
        self.buf.borrow().clone()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.borrow().len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.borrow().is_empty()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.borrow_mut().extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::TraceReader;
    use crate::trace::tests::one_of_each;

    #[test]
    fn bin_sink_writes_header_and_records() {
        let buf = SharedBuf::new();
        let mut sink = BinSink::new(buf.clone());
        for e in one_of_each() {
            sink.record(e);
        }
        sink.flush().unwrap();
        let bytes = buf.bytes();
        assert_eq!(&bytes[..4], b"AXTR");
        assert_eq!(bytes[4], codec::VERSION);
        let events: Vec<_> = TraceReader::new(&bytes[..])
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(events, one_of_each());
    }

    #[test]
    fn drop_flushes_buffered_tail() {
        let buf = SharedBuf::new();
        {
            let mut sink = BinSink::new(buf.clone());
            sink.record(one_of_each()[0].clone());
            // No explicit flush: the event is smaller than the BufWriter
            // buffer, so only Drop can push it through.
            assert!(buf.is_empty(), "still buffered before drop");
        }
        assert!(!buf.is_empty(), "Drop must flush the tail");
    }

    #[test]
    fn finish_returns_writer_and_deferred_errors() {
        let buf = SharedBuf::new();
        let mut sink = BinSink::new(buf.clone());
        sink.record(one_of_each()[0].clone());
        let w = sink.finish().unwrap();
        assert_eq!(w.bytes(), buf.bytes());

        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = BinSink::new(FailingWriter);
        for e in one_of_each() {
            sink.record(e); // errors are deferred, not panics
        }
        // Events land in the BufWriter without error; the failure
        // surfaces once flush pushes them at the writer.
        let err = sink.flush().unwrap_err();
        assert_eq!(err.to_string(), "disk on fire");
    }

    #[test]
    fn connect_without_a_listener_fails_at_construction() {
        // Bind-then-drop: nothing listens on the port any more.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .unwrap();
        assert!(BinSink::connect(addr).is_err());
    }

    #[test]
    fn a_consumer_that_hangs_up_surfaces_at_a_flush() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut sink = BinSink::connect(listener.local_addr().unwrap()).unwrap();
        drop(listener.accept().unwrap());
        // The kernel may take the first write after the close; the
        // reset the closed end answers it with fails a later one.
        let failed = (0..200).any(|_| {
            sink.record(one_of_each()[0].clone());
            std::thread::sleep(std::time::Duration::from_millis(1));
            sink.flush().is_err()
        });
        assert!(failed, "a closed consumer must surface as a flush error");
    }

    #[test]
    fn fanout_tees_and_flushes() {
        let vec = crate::trace::VecSink::new();
        let bin = SharedBuf::new();
        let mut fan = FanoutSink::new()
            .with(vec.clone())
            .with(BinSink::new(bin.clone()));
        for e in one_of_each() {
            fan.record(e);
        }
        fan.flush().unwrap();
        assert_eq!(vec.take(), one_of_each());
        let events: Vec<_> = TraceReader::new(&bin.bytes()[..])
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(events, one_of_each());
    }
}
