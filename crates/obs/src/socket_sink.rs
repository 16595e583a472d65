//! [`SocketSink`] — stream AXTR trace frames to a TCP consumer.
//!
//! The engine-facing half of the live observability pipeline: events
//! recorded through [`crate::trace::TraceSink`] are encoded with
//! [`crate::codec`] and handed to a background writer thread that owns
//! the connection. The consumer side is a [`crate::reader::FollowReader`]
//! on the accepted socket (the `axml-top --listen` dashboard, a
//! collector, …).
//!
//! # The never-block-the-engine contract
//!
//! `record` never performs I/O and never waits on the network:
//!
//! * Each event is encoded into a scratch buffer and pushed into a
//!   **bounded** byte queue under a mutex held for the duration of a
//!   `memcpy`. Writer wakeups are batched: `record` only signals the
//!   writer past a high-water mark, and the writer otherwise picks
//!   small batches up on a ~1 ms poll — so the hot path costs one
//!   encode plus one short, usually uncontended critical section,
//!   keeping the engine overhead inside the same <2 % budget as the
//!   file sinks (asserted by the `eval/socket_sink` micro-bench).
//! * When the queue is full (a stalled consumer), the record is
//!   **counted and dropped** — never blocking, never growing without
//!   bound. [`SocketSink::dropped_records`] exposes the count, and the
//!   drop total is also reported by [`SocketSink::finish`].
//! * When the sink is detached or never attached, the engine pays
//!   nothing (the usual zero-cost-when-off `Obs::emit` closure gate).
//!
//! # Reconnects
//!
//! A broken connection is retried with capped exponential backoff
//! ([`axml_net::socket::connect_with_backoff`]). Each (re)connect sends
//! a fresh AXTR header before any frame, and queued frames are only
//! flushed whole, so the byte stream a consumer sees after accepting a
//! reconnection is always `header ++ whole frames` — decodable from the
//! first byte by a fresh `FollowReader`. When the reconnect budget is
//! exhausted the sink goes *dead*: buffered and future records are
//! counted as dropped and the terminal error is surfaced by
//! [`TraceSink::flush`] / [`SocketSink::finish`].

use crate::codec;
use crate::trace::{TraceEvent, TraceSink};
use axml_net::bytes::Cursor;
use axml_net::socket::connect_with_backoff;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Queue capacity in bytes. Records that would overflow it are counted
/// and dropped (4 MiB ≈ hundreds of thousands of records).
const CAPACITY_BYTES: usize = 4 << 20;

/// Reconnect attempts after a broken connection before the sink goes
/// dead (the *initial* connect is synchronous and not subject to this
/// budget); the delay starts at `BACKOFF_BASE_MS` and doubles per
/// attempt up to `BACKOFF_CAP_MS`.
const RECONNECT_ATTEMPTS: u32 = 5;
const BACKOFF_BASE_MS: u64 = 10;
const BACKOFF_CAP_MS: u64 = 250;

/// How long [`TraceSink::flush`] waits for the queue to drain before
/// reporting `TimedOut`.
const FLUSH_TIMEOUT: Duration = Duration::from_secs(5);

/// Queue state shared between the recording side and the writer thread.
#[derive(Default)]
struct Queue {
    /// Encoded whole frames awaiting write.
    buf: Vec<u8>,
    /// Records currently inside `buf` (so a dead sink can count them
    /// as dropped).
    records: u64,
    /// Terminal writer failure, surfaced by `flush`/`finish`.
    err: Option<io::Error>,
    /// The writer gave up (reconnect budget exhausted) or exited.
    dead: bool,
}

struct Shared {
    q: Mutex<Queue>,
    /// Signaled when records arrive or the sink starts closing.
    work: Condvar,
    /// Signaled when the writer drains the queue or dies.
    drained: Condvar,
    /// Records dropped by overflow or a dead sink.
    dropped: AtomicU64,
    /// Bytes actually written to the socket (headers included).
    written: AtomicU64,
    /// Completed (re)connections.
    connects: AtomicU64,
    closing: AtomicBool,
}

/// A [`TraceSink`] streaming binary AXTR frames over TCP.
///
/// See the module docs for the overflow/reconnect semantics. Dropping
/// the sink flushes what the consumer will still accept and joins the
/// writer thread; use [`SocketSink::finish`] to observe the outcome.
pub struct SocketSink {
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
    scratch: Vec<u8>,
    capacity: usize,
}

impl SocketSink {
    /// Connect to a consumer at `addr`. The initial connect is
    /// synchronous so a missing consumer fails fast, here.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Self::connect_tuned(addr, CAPACITY_BYTES, RECONNECT_ATTEMPTS)
    }

    /// [`SocketSink::connect`] with the queue size and reconnect budget
    /// spelled out (the unit tests shrink both).
    fn connect_tuned(addr: SocketAddr, capacity: usize, reconnects: u32) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let shared = Arc::new(Shared {
            q: Mutex::new(Queue::default()),
            work: Condvar::new(),
            drained: Condvar::new(),
            dropped: AtomicU64::new(0),
            written: AtomicU64::new(0),
            connects: AtomicU64::new(0),
            closing: AtomicBool::new(false),
        });
        let writer_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("axml-socket-sink".into())
            .spawn(move || writer_loop(writer_shared, stream, addr, reconnects))
            .map_err(|e| io::Error::other(format!("spawning sink writer: {e}")))?;
        Ok(Self {
            shared,
            handle: Some(handle),
            scratch: Vec::with_capacity(256),
            capacity,
        })
    }

    /// Records dropped so far (queue overflow or dead sink).
    pub fn dropped_records(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Bytes written to the socket so far (AXTR headers included).
    pub fn written_bytes(&self) -> u64 {
        self.shared.written.load(Ordering::Relaxed)
    }

    /// Completed connections (1 for a healthy run; more after
    /// reconnects).
    pub fn connections(&self) -> u64 {
        self.shared.connects.load(Ordering::Relaxed)
    }

    /// Flush, shut the writer down, and report the outcome: the number
    /// of dropped records on success, or the terminal I/O error.
    pub fn finish(mut self) -> io::Result<u64> {
        let flush = self.flush();
        self.shutdown();
        flush?;
        Ok(self.dropped_records())
    }

    /// Ask the writer to exit once the queue is drained and join it.
    fn shutdown(&mut self) {
        self.shared.closing.store(true, Ordering::SeqCst);
        self.shared.work.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    fn wait_drained(&self, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        // Kick the writer so a below-watermark tail drains immediately
        // instead of waiting out its poll interval.
        self.shared.work.notify_all();
        let mut q = self.shared.q.lock().unwrap();
        loop {
            if let Some(e) = q.err.take() {
                return Err(e);
            }
            if q.buf.is_empty() || q.dead {
                return Ok(());
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "socket sink flush timed out with records still queued",
                ));
            }
            let (guard, _) = self.shared.drained.wait_timeout(q, left).unwrap();
            q = guard;
        }
    }
}

/// Queue depth past which `record` wakes the writer eagerly. Below it
/// the writer picks batches up on its own short poll, so the hot path
/// is one encode plus an uncontended lock + memcpy — no futex wake, no
/// per-record TCP write.
const EAGER_WAKE_BYTES: usize = 32 << 10;

impl TraceSink for SocketSink {
    fn record(&mut self, event: TraceEvent) {
        self.scratch.clear();
        codec::encode_record(&event, &mut self.scratch);
        let mut q = self.shared.q.lock().unwrap();
        if q.dead || q.buf.len() + self.scratch.len() > self.capacity {
            drop(q);
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        q.buf.extend_from_slice(&self.scratch);
        q.records += 1;
        let kick = q.buf.len() >= EAGER_WAKE_BYTES;
        drop(q);
        if kick {
            self.shared.work.notify_one();
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.wait_drained(FLUSH_TIMEOUT)
    }
}

impl Drop for SocketSink {
    fn drop(&mut self) {
        // Per the TraceSink contract: best-effort flush, then shut the
        // writer down. Failures were already recorded in the queue and
        // are observable via finish() — Drop stays silent and bounded.
        let _ = self.wait_drained(Duration::from_secs(1));
        self.shutdown();
    }
}

impl std::fmt::Debug for SocketSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SocketSink")
            .field("dropped", &self.dropped_records())
            .field("written", &self.written_bytes())
            .field("connections", &self.connections())
            .finish()
    }
}

/// The writer thread: own the connection, drain the queue, reconnect on
/// failure, die when the budget is gone or the sink is closing.
fn writer_loop(shared: Arc<Shared>, stream: TcpStream, addr: SocketAddr, reconnects: u32) {
    let mut conn = Some(stream);
    // Recycled drain buffer, swapped with the queue under the lock so
    // both sides keep their steady-state capacity (no per-drain
    // reallocation on the record side).
    let mut spare: Vec<u8> = Vec::new();
    'outer: loop {
        // (Re)establish a connection, header first.
        let mut stream = match conn.take() {
            Some(s) => s,
            None => {
                let closing = {
                    let shared = Arc::clone(&shared);
                    move || shared.closing.load(Ordering::SeqCst)
                };
                match connect_with_backoff(
                    addr,
                    reconnects,
                    BACKOFF_BASE_MS,
                    BACKOFF_CAP_MS,
                    closing,
                ) {
                    Ok(s) => {
                        s.set_nodelay(true).ok();
                        s
                    }
                    Err(e) => {
                        die(&shared, e);
                        return;
                    }
                }
            }
        };
        if stream.write_all(&codec::HEADER).is_err() {
            conn = None;
            continue 'outer; // reconnect (budget enforced inside)
        }
        shared
            .written
            .fetch_add(codec::HEADER.len() as u64, Ordering::Relaxed);
        shared.connects.fetch_add(1, Ordering::Relaxed);
        // Drain the queue onto this connection until it breaks.
        loop {
            {
                let mut q = shared.q.lock().unwrap();
                while q.buf.is_empty() && !shared.closing.load(Ordering::SeqCst) {
                    // Short poll: small batches ride the timeout (~1 ms
                    // live latency), big ones arrive via the eager wake.
                    let (guard, _) = shared
                        .work
                        .wait_timeout(q, Duration::from_millis(1))
                        .unwrap();
                    q = guard;
                }
                if q.buf.is_empty() {
                    // closing with nothing left to write
                    q.dead = true;
                    shared.drained.notify_all();
                    let _ = stream.flush();
                    return;
                }
                q.records = 0;
                std::mem::swap(&mut q.buf, &mut spare);
            }
            // Whole frames only: a write failure re-sends the entire
            // chunk on the next connection, where a fresh header makes
            // the stream decodable from byte 0 again.
            if stream
                .write_all(&spare)
                .and_then(|_| stream.flush())
                .is_ok()
            {
                shared
                    .written
                    .fetch_add(spare.len() as u64, Ordering::Relaxed);
                spare.clear();
                shared.drained.notify_all();
            } else {
                // Put the unsent chunk back at the front of the queue
                // (newer records queued during the failed write follow).
                let mut q = shared.q.lock().unwrap();
                let records = count_records(&spare) + count_records(&q.buf);
                spare.extend_from_slice(&q.buf);
                std::mem::swap(&mut q.buf, &mut spare);
                q.records = records;
                drop(q);
                spare.clear();
                conn = None;
                continue 'outer;
            }
        }
    }
}

/// Count whole AXTR frames in an encoded buffer (each is a u32 LE
/// length prefix plus payload; the buffer only ever holds whole frames).
fn count_records(buf: &[u8]) -> u64 {
    let mut frames = Cursor::new(buf);
    let mut n = 0;
    while let Ok(len) = frames.u32() {
        if frames.take(len as usize).is_err() {
            break;
        }
        n += 1;
    }
    n
}

/// Terminal failure: mark the sink dead, count the queue as dropped,
/// record the error for `flush`/`finish`.
fn die(shared: &Shared, e: io::Error) {
    let mut q = shared.q.lock().unwrap();
    q.dead = true;
    shared.dropped.fetch_add(q.records, Ordering::Relaxed);
    q.records = 0;
    q.buf.clear();
    q.err = Some(e);
    shared.drained.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::TraceReader;
    use crate::trace::tests::one_of_each;
    use std::io::Read;
    use std::net::TcpListener;

    fn collect_connection(listener: &TcpListener) -> Vec<u8> {
        let (mut s, _) = listener.accept().unwrap();
        let mut bytes = Vec::new();
        s.read_to_end(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn streams_decodable_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || collect_connection(&listener));
        let mut sink = SocketSink::connect(addr).unwrap();
        for e in one_of_each() {
            sink.record(e);
        }
        let dropped = sink.finish().unwrap();
        assert_eq!(dropped, 0);
        let bytes = server.join().unwrap();
        let events: Vec<_> = TraceReader::new(&bytes[..])
            .unwrap()
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        assert_eq!(events, one_of_each());
    }

    #[test]
    fn refused_connection_fails_fast() {
        // Bind-then-drop guarantees nothing listens on the port.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        assert!(SocketSink::connect(addr).is_err());
    }

    #[test]
    fn overflow_counts_and_drops_without_blocking() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Accept but never read: the kernel buffers a little, the sink
        // queue (tiny capacity) takes the rest, overflow is dropped.
        let mut sink = SocketSink::connect_tuned(addr, 1024, RECONNECT_ATTEMPTS).unwrap();
        let _conn = listener.accept().unwrap();
        let start = Instant::now();
        for _ in 0..20_000 {
            for e in one_of_each() {
                sink.record(e);
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "record() must never block on a stalled consumer"
        );
        assert!(sink.dropped_records() > 0, "overflow must be counted");
    }

    #[test]
    fn dead_sink_surfaces_error_and_counts_queue() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut sink = SocketSink::connect_tuned(addr, CAPACITY_BYTES, 2).unwrap();
        // Accept, then drop both the connection and the listener: every
        // reconnect attempt now fails outright.
        {
            let (conn, _) = listener.accept().unwrap();
            drop(conn);
        }
        drop(listener);
        for _ in 0..200 {
            for e in one_of_each() {
                sink.record(e);
            }
            if sink.shared.q.lock().map(|q| q.dead).unwrap_or(true) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Either flush or finish must surface the terminal error; later
        // records are dropped, not buffered forever.
        let before = sink.dropped_records();
        sink.record(one_of_each()[0].clone());
        assert!(sink.dropped_records() > before || sink.finish().is_err());
    }
}
