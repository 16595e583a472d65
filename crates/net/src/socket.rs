//! [`SocketTransport`]: the real multi-process loopback wire.
//!
//! Each peer of a [`SocketTransport`] is backed by an **endpoint** — an
//! OS process (or, for unit tests, a thread) owning a loopback TCP
//! listener and speaking the AXTR wire protocol of [`crate::frame`].
//! Every message the network model accepts is *additionally* shipped
//! as real bytes through the kernel to the receiving peer's endpoint,
//! which parses the frame, counts it, and acknowledges with a content
//! digest the sender verifies before the message is allowed to
//! proceed. A mismatch or connection failure surfaces as the typed
//! [`NetError::Wire`] — a *physical* failure, distinct from the
//! modelled fault variants.
//!
//! # Layering and determinism
//!
//! The engine is a single-process discrete-event coordinator, so the
//! **model** — virtual clock, [`LinkCost`](crate::link::LinkCost)
//! timing, seeded [`FaultPlan`](crate::sim::FaultPlan) draws,
//! [`NetStats`](crate::stats::NetStats) charging — stays in the one
//! [`SimTransport`](crate::sim::SimTransport), and this type is the
//! [`Transport`] attached under it
//! ([`SimTransport::over`](crate::sim::SimTransport::over)):
//!
//! ```text
//! send_attempt ──► fault gate (deterministic: drops, outages, jitter)
//!                    │ accepted
//!                    ▼
//!                  AXTR Msg frame ──TCP──► endpoint process ──► Ack
//!                    │ digest verified               (counts frames)
//!                    ▼
//!                  queue (virtual arrival time, stats charge)
//! ```
//!
//! Rejected attempts (drops, outages, crashes) never touch the wire, so
//! the fault stream remains a pure function of `(seed, send sequence)`
//! and a sim run and a socket run with the same seed observe **bit
//! identical** virtual time, statistics and results — that equivalence
//! is enforced by `crates/bench/tests/transport_equivalence.rs`. What
//! the socket wire adds is proof that every charged message really
//! crossed a process boundary intact: [`SocketHandle::reconcile`]
//! fetches each endpoint's counters and checks them against the
//! client-side ledger.
//!
//! # Example
//!
//! ```
//! use axml_net::sim::SimTransport;
//! use axml_net::socket::SocketTransport;
//! use axml_net::link::LinkCost;
//!
//! // Endpoints default to spawned loopback threads; a real cluster
//! // registers `peerd` process addresses first (see TRANSPORT.md).
//! let wire = SocketTransport::new();
//! let handle = wire.handle(); // the model takes the wire itself
//! let mut net: SimTransport<String> = SimTransport::over(Box::new(wire));
//! let a = net.add_peer("a");
//! let b = net.add_peer("b");
//! net.set_link(a, b, LinkCost::wan());
//! let at = net.send(a, b, "hello".to_string());
//! assert!(at > 0.0);
//! let (to, msg, _) = net.recv().unwrap();
//! assert_eq!((to, msg.as_str()), (b, "hello"));
//! // Every accepted message crossed the kernel: the endpoint saw it.
//! let reports = handle.reconcile().unwrap();
//! assert_eq!(reports[b.index()].frames, 1);
//! handle.shutdown();
//! ```

use crate::error::{NetError, NetResult};
use crate::frame::{
    fnv1a64, read_frame, read_preamble, try_encode_frame, try_encode_msg_with, write_frame,
    write_preamble, Frame, FrameError, MSG_PAYLOAD_AT,
};
use crate::transport::{FramedPayload, Transport};
use axml_xml::ids::PeerId;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client-side ledger of real wire traffic, kept separately from
/// [`NetStats`](crate::stats::NetStats) so the deterministic statistics stay bit-identical to
/// the simulator's. One entry per peer endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// AXTR `Msg` frames shipped to this peer's endpoint.
    pub frames: u64,
    /// Total payload bytes inside those frames (headers excluded).
    pub payload_bytes: u64,
}

/// An endpoint's own account of the traffic it served, as returned by
/// its `Stats` frame. [`SocketHandle::reconcile`] checks this against
/// the client-side [`WireStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointReport {
    /// The peer this endpoint backs.
    pub peer: PeerId,
    /// The peer's display name (from the `Hello` handshake).
    pub name: String,
    /// `Msg` frames the endpoint parsed and acknowledged.
    pub frames: u64,
    /// Payload bytes the endpoint received inside those frames.
    pub payload_bytes: u64,
}

/// How long after its write a sender looks for the reply before it
/// sleeps for it. An endpoint on the same host answers a small frame in
/// microseconds, and waking a core that went idle for that long costs
/// several times the wait (35–100 µs on a two-vCPU guest, more when the
/// host is busy): whether the scheduler put the endpoint on the
/// sender's core or on the other one used to decide a quarter of a
/// round trip's latency. Time the sender spent digesting its frame
/// counts, so after a large frame this is one look.
const REPLY_POLL: Duration = Duration::from_micros(200);

/// One live connection to a peer's endpoint.
struct Endpoint {
    addr: SocketAddr,
    name: String,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Next frame sequence number on this connection.
    seq: u64,
    wire: WireStats,
    /// Join handle when the endpoint is a locally spawned thread (the
    /// unit-test default); `None` for external processes.
    thread: Option<JoinHandle<()>>,
}

/// The endpoint table, shared between a [`SocketTransport`] and any
/// [`SocketHandle`]s cloned off it (so callers that hand the transport
/// to an engine can still reconcile and shut down afterwards).
struct Shared {
    endpoints: Vec<Endpoint>,
    closed: bool,
    /// The `Msg` frame being shipped, reused from one send to the next.
    frame: Vec<u8>,
}

impl Endpoint {
    /// The sequence number of the next frame on this connection.
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    /// Write one encoded frame and flush. Returns when that was done, for
    /// [`Endpoint::read_reply`].
    fn write(&mut self, frame: &[u8]) -> Result<Instant, FrameError> {
        self.writer.write_all(frame)?;
        self.writer.flush()?;
        Ok(Instant::now())
    }

    /// Until [`REPLY_POLL`] after `written`, look for the reply's first
    /// bytes without sleeping for them (yielding between looks, so an
    /// endpoint that shares this core gets it). Leaves the connection
    /// blocking again.
    fn poll_reply(&mut self, written: Instant) -> io::Result<()> {
        self.reader.get_ref().set_nonblocking(true)?;
        let polled = loop {
            match self.reader.fill_buf() {
                // Bytes, or an end of stream for `read_frame` to report.
                Ok(_) => break Ok(()),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if written.elapsed() >= REPLY_POLL {
                        break Ok(());
                    }
                    std::thread::yield_now();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        self.reader.get_ref().set_nonblocking(false)?;
        polled
    }

    /// Read the reply to the frame numbered `seq`, whose write finished
    /// at `written`.
    fn read_reply(&mut self, seq: u64, written: Instant) -> Result<Frame, FrameError> {
        self.poll_reply(written)?;
        let (reply_seq, reply) = read_frame(&mut self.reader)?;
        if reply_seq != seq {
            return Err(FrameError::Malformed(format!(
                "reply seq {reply_seq} does not match request seq {seq}"
            )));
        }
        Ok(reply)
    }
}

impl Shared {
    /// Write one frame to endpoint `idx`, flush, read the reply.
    fn roundtrip(&mut self, idx: usize, frame: &Frame) -> Result<Frame, FrameError> {
        let ep = &mut self.endpoints[idx];
        let seq = ep.next_seq();
        let written = ep.write(&try_encode_frame(seq, frame)?)?;
        ep.read_reply(seq, written)
    }

    /// Ship `msg` as one `Msg` frame built in place — head, addresses,
    /// then the message rendering itself straight after them — and check
    /// the endpoint's acknowledgement against those very bytes.
    fn ship(&mut self, from: PeerId, to: PeerId, msg: &impl FramedPayload) -> NetResult<()> {
        let Shared {
            endpoints, frame, ..
        } = self;
        let ep = &mut endpoints[to.index()];
        let seq = ep.next_seq();
        let written = try_encode_msg_with(frame, seq, from.0, to.0, |out| msg.frame_payload(out))
            .and_then(|()| ep.write(frame))
            .map_err(|e| wire_err(to, e))?;
        // Digest our copy while the endpoint digests its own: by the time
        // a large frame's is done the reply is usually already waiting.
        let payload = &frame[MSG_PAYLOAD_AT..];
        let sent = fnv1a64(payload);
        let reply = ep.read_reply(seq, written).map_err(|e| wire_err(to, e))?;
        match reply {
            Frame::Ack { digest, len } if digest == sent && len as usize == payload.len() => {
                ep.wire.frames += 1;
                ep.wire.payload_bytes += payload.len() as u64;
                Ok(())
            }
            Frame::Ack { digest, len } => Err(NetError::Wire {
                peer: to,
                detail: format!(
                    "acknowledgement mismatch: endpoint saw digest {digest:#018x} / {len} bytes, \
                     sent digest {sent:#018x} / {} bytes",
                    payload.len()
                ),
            }),
            other => Err(NetError::Wire {
                peer: to,
                detail: format!("expected Ack, got {other:?}"),
            }),
        }
    }

    fn reconcile(&mut self) -> NetResult<Vec<EndpointReport>> {
        let mut reports = Vec::with_capacity(self.endpoints.len());
        for idx in 0..self.endpoints.len() {
            let peer = PeerId(idx as u32);
            let reply = self
                .roundtrip(
                    idx,
                    &Frame::Stats {
                        frames: 0,
                        payload_bytes: 0,
                    },
                )
                .map_err(|e| wire_err(peer, e))?;
            let (frames, payload_bytes) = match reply {
                Frame::Stats {
                    frames,
                    payload_bytes,
                } => (frames, payload_bytes),
                other => {
                    return Err(NetError::Wire {
                        peer,
                        detail: format!("expected Stats reply, got {other:?}"),
                    })
                }
            };
            let ep = &self.endpoints[idx];
            if frames != ep.wire.frames || payload_bytes != ep.wire.payload_bytes {
                return Err(NetError::Wire {
                    peer,
                    detail: format!(
                        "endpoint counted {frames} frames / {payload_bytes} payload bytes, \
                         client shipped {} / {}",
                        ep.wire.frames, ep.wire.payload_bytes
                    ),
                });
            }
            reports.push(EndpointReport {
                peer,
                name: ep.name.clone(),
                frames,
                payload_bytes,
            });
        }
        Ok(reports)
    }

    fn shutdown(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        for idx in 0..self.endpoints.len() {
            let _ = self.roundtrip(idx, &Frame::Bye); // endpoint echoes Bye
            if let Some(handle) = self.endpoints[idx].thread.take() {
                let _ = handle.join();
            }
        }
    }
}

/// The real loopback socket wire. See the [module docs](self).
///
/// Carries any message that is a [`FramedPayload`] (so its bytes can
/// cross the process boundary).
pub struct SocketTransport {
    endpoints: SocketHandle,
    /// Endpoint addresses registered ahead of the peers that will claim
    /// them, in FIFO order (the process-cluster path).
    pending_endpoints: VecDeque<SocketAddr>,
}

/// A cloneable handle on a [`SocketTransport`]'s endpoint connections.
///
/// Obtain one with [`SocketTransport::handle`] **before** boxing the
/// wire into a network model (`SimTransport::over`,
/// `AxmlSystem::with_transport`); the handle is then how the wire
/// ledger is read, the endpoints reconciled and the cluster shut down.
#[derive(Clone)]
pub struct SocketHandle {
    shared: Arc<Mutex<Shared>>,
}

impl SocketHandle {
    fn shared(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().expect("endpoint table lock")
    }

    /// Ask every endpoint for its own traffic counters and verify them
    /// against the client-side ledger. This is the physical half of the
    /// differential oracle: the deterministic [`NetStats`](crate::stats::NetStats) prove the
    /// *model* matched the simulator, the reconciled reports prove the
    /// counted messages really crossed the process boundary.
    pub fn reconcile(&self) -> NetResult<Vec<EndpointReport>> {
        self.shared().reconcile()
    }

    /// Client-side wire ledger for one peer's endpoint.
    pub fn wire_stats(&self, p: PeerId) -> WireStats {
        self.shared().endpoints[p.index()].wire
    }

    /// The listener address of a peer's endpoint.
    pub fn endpoint_addr(&self, p: PeerId) -> SocketAddr {
        self.shared().endpoints[p.index()].addr
    }

    /// Send `Bye` to every endpoint and join locally spawned threads.
    /// Idempotent; also runs when the last owner of the endpoint table
    /// is dropped (best effort, errors ignored).
    pub fn shutdown(&self) {
        self.shared().shutdown()
    }
}

impl SocketTransport {
    /// A wire with no endpoints yet. Peers connected without a
    /// pre-registered endpoint get a freshly spawned loopback *thread*
    /// endpoint; call [`SocketTransport::register_endpoint`] first to
    /// attach real processes instead.
    pub fn new() -> Self {
        SocketTransport {
            endpoints: SocketHandle {
                shared: Arc::new(Mutex::new(Shared {
                    endpoints: Vec::new(),
                    closed: false,
                    frame: Vec::new(),
                })),
            },
            pending_endpoints: VecDeque::new(),
        }
    }

    /// Register the listener address of an external endpoint process
    /// (e.g. a `peerd` from `axml-bench`'s process cluster). The next
    /// peer the model adds claims it; addresses are claimed in
    /// registration order.
    pub fn register_endpoint(&mut self, addr: SocketAddr) {
        self.pending_endpoints.push_back(addr);
    }

    /// A handle that reads the wire ledger, reconciles and shuts down
    /// this wire's endpoints once the wire itself has been moved into
    /// the network model.
    pub fn handle(&self) -> SocketHandle {
        self.endpoints.clone()
    }

    /// Connect to `addr`, write the wire preamble and perform the
    /// `Hello` handshake for `peer`.
    fn connect_endpoint(
        peer: PeerId,
        name: &str,
        addr: SocketAddr,
        thread: Option<JoinHandle<()>>,
    ) -> Result<Endpoint, FrameError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut ep = Endpoint {
            addr,
            name: name.to_string(),
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            seq: 0,
            wire: WireStats::default(),
            thread,
        };
        write_preamble(&mut ep.writer)?;
        let seq = ep.seq;
        ep.seq += 1;
        write_frame(
            &mut ep.writer,
            seq,
            &Frame::Hello {
                peer: peer.0,
                name: name.to_string(),
            },
        )?;
        ep.writer.flush()?;
        let (reply_seq, reply) = read_frame(&mut ep.reader)?;
        match reply {
            Frame::Ack { digest, len }
                if reply_seq == seq
                    && digest == fnv1a64(name.as_bytes())
                    && len as usize == name.len() => {}
            other => {
                return Err(FrameError::Malformed(format!(
                    "bad Hello acknowledgement: {other:?}"
                )))
            }
        }
        Ok(ep)
    }
}

impl Default for SocketTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        // Outstanding SocketHandles keep the endpoints alive (the whole
        // point of a handle is reconciling *after* the wire was
        // consumed); the last owner cleans up.
        if Arc::strong_count(&self.endpoints.shared) == 1 {
            if let Ok(mut shared) = self.endpoints.shared.lock() {
                shared.shutdown();
            }
        }
    }
}

fn wire_err(peer: PeerId, e: FrameError) -> NetError {
    NetError::Wire {
        peer,
        detail: e.to_string(),
    }
}

impl<M: FramedPayload> Transport<M> for SocketTransport {
    fn label(&self) -> &'static str {
        "socket"
    }

    /// Connects a real endpoint for the new peer: the next address
    /// registered with [`SocketTransport::register_endpoint`], or a
    /// freshly spawned loopback thread endpoint when none is pending.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint cannot be reached or fails the `Hello`
    /// handshake — peer setup is configuration, not a runtime fault.
    fn connect(&mut self, peer: PeerId, name: &str) {
        let (addr, thread) = match self.pending_endpoints.pop_front() {
            Some(addr) => (addr, None),
            None => {
                let (addr, handle) =
                    spawn_endpoint_thread().expect("failed to spawn loopback endpoint thread");
                (addr, Some(handle))
            }
        };
        let ep = Self::connect_endpoint(peer, name, addr, thread)
            .unwrap_or_else(|e| panic!("endpoint handshake for {peer} at {addr} failed: {e}"));
        let mut shared = self.endpoints.shared();
        assert_eq!(
            peer.index(),
            shared.endpoints.len(),
            "peers connect in id order"
        );
        shared.endpoints.push(ep);
    }

    /// Ships the message's bytes to the receiving endpoint and verifies
    /// the acknowledgement digest against them.
    fn ship(&mut self, from: PeerId, to: PeerId, msg: &M) -> NetResult<()> {
        self.endpoints.shared().ship(from, to, msg)
    }
}

// ---------------------------------------------------------------------
// Endpoint side
// ---------------------------------------------------------------------

/// Serve one client connection with the endpoint half of the AXTR wire
/// protocol, until a `Bye` frame or EOF. Returns the final
/// `(frames, payload_bytes)` counters.
///
/// This is the loop both the in-process thread endpoints below and the
/// external `peerd` binary (in `axml-bench`) run:
///
/// * `Hello` → `Ack` over the peer name's digest;
/// * `Msg` → count it, `Ack` over the payload digest;
/// * `Stats` (request; fields ignored) → `Stats` with the counters;
/// * `Bye` → `Bye` echo, then return.
///
/// Replies reuse the request's sequence number so the client can match
/// them up.
pub fn serve_connection(stream: TcpStream) -> Result<(u64, u64), FrameError> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    read_preamble(&mut reader)?;
    let mut frames: u64 = 0;
    let mut payload_bytes: u64 = 0;
    loop {
        let (seq, frame) = match read_frame(&mut reader) {
            Ok(f) => f,
            // EOF between frames is a clean disconnect.
            Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Ok((frames, payload_bytes))
            }
            Err(e) => return Err(e),
        };
        let reply = match frame {
            Frame::Hello { name, .. } => Frame::Ack {
                digest: fnv1a64(name.as_bytes()),
                len: name.len() as u32,
            },
            Frame::Msg { payload, .. } => {
                frames += 1;
                payload_bytes += payload.len() as u64;
                Frame::Ack {
                    digest: fnv1a64(&payload),
                    len: payload.len() as u32,
                }
            }
            Frame::Stats { .. } => Frame::Stats {
                frames,
                payload_bytes,
            },
            Frame::Bye => {
                write_frame(&mut writer, seq, &Frame::Bye)?;
                writer.flush()?;
                return Ok((frames, payload_bytes));
            }
            Frame::Ack { .. } => {
                return Err(FrameError::Malformed(
                    "endpoint received an Ack frame (acks only flow endpoint → client)".into(),
                ))
            }
        };
        write_frame(&mut writer, seq, &reply)?;
        writer.flush()?;
    }
}

/// Bind a loopback listener and serve a single connection on a spawned
/// thread. Returns the listener address and the thread's join handle.
/// This is the unit-test / single-process stand-in for a real `peerd`
/// endpoint process.
pub fn spawn_endpoint_thread() -> io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let handle = std::thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            // Protocol errors end the endpoint; the client observes the
            // disconnect as a typed wire error on its next send.
            let _ = serve_connection(stream);
        }
    });
    Ok((addr, handle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MAX_FRAME_LEN;
    use crate::link::LinkCost;
    use crate::sim::{FaultPlan, SimTransport};

    /// A network model over a fresh socket wire with `endpoints`
    /// pre-registered, and the wire's handle.
    fn socket_net(endpoints: &[SocketAddr]) -> (SimTransport<String>, SocketHandle) {
        let mut wire = SocketTransport::new();
        for &addr in endpoints {
            wire.register_endpoint(addr);
        }
        let handle = wire.handle();
        (SimTransport::over(Box::new(wire)), handle)
    }

    #[test]
    fn ships_every_accepted_message_and_reconciles() {
        let (mut net, wire) = socket_net(&[]);
        let a = net.add_peer("a");
        let b = net.add_peer("b");
        net.set_link(a, b, LinkCost::lan());
        for i in 0..5 {
            net.send(a, b, format!("m{i}"));
        }
        net.send(b, a, "reply".to_string());
        // Local delivery: no wire traffic.
        net.send(a, a, "loop".to_string());
        assert_eq!(net.backend(), "socket");
        assert_eq!(
            wire.wire_stats(b),
            WireStats {
                frames: 5,
                payload_bytes: 10
            }
        );
        assert_eq!(
            wire.wire_stats(a),
            WireStats {
                frames: 1,
                payload_bytes: 5
            }
        );
        let reports = wire.reconcile().unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[b.index()].frames, 5);
        assert_eq!(reports[a.index()].name, "a");
        wire.shutdown();
    }

    #[test]
    fn matches_simulator_timing_and_stats_exactly() {
        let mut sim: SimTransport<String> = SimTransport::new();
        let (mut sock, wire) = socket_net(&[]);
        for name in ["a", "b", "c"] {
            sim.add_peer(name);
            sock.add_peer(name);
        }
        let (a, b, c) = (PeerId(0), PeerId(1), PeerId(2));
        for net in [&mut sim, &mut sock] {
            net.set_link(a, b, LinkCost::wan());
            net.set_link(b, c, LinkCost::lan());
            net.set_fault_plan(FaultPlan::new(7).drop_prob(0.3).jitter_ms(4.0));
        }
        for i in 0..20 {
            let msg = format!("payload-{i:04}");
            let r1 = sim.send_attempt(a, b, msg.clone());
            let r2 = sock.send_attempt(a, b, msg);
            match (r1, r2) {
                (Ok(t1), Ok(t2)) => assert_eq!(t1, t2, "arrival {i}"),
                (Err((e1, _)), Err((e2, _))) => assert_eq!(e1, e2, "fault {i}"),
                (x, y) => panic!("diverged at {i}: {:?} vs {:?}", x.is_ok(), y.is_ok()),
            }
        }
        while let (Some(x), Some(y)) = (sim.recv_from(), sock.recv_from()) {
            assert_eq!((x.0, x.1, x.3), (y.0, y.1, y.3));
            assert_eq!(x.2, y.2);
        }
        assert_eq!(sim.now_ms(), sock.now_ms());
        assert_eq!(sim.stats().total_bytes(), sock.stats().total_bytes());
        assert_eq!(sim.stats().total_messages(), sock.stats().total_messages());
        wire.reconcile().unwrap();
        wire.shutdown();
    }

    #[test]
    fn dead_endpoint_surfaces_as_typed_wire_error() {
        let (mut net, wire) = socket_net(&[]);
        let a = net.add_peer("a");
        let b = net.add_peer("b");
        net.set_link(a, b, LinkCost::lan());
        net.send(a, b, "warmup".to_string());
        // Kill b's endpoint out from under the transport.
        {
            let mut shared = wire.shared();
            shared.roundtrip(b.index(), &Frame::Bye).unwrap();
            if let Some(h) = shared.endpoints[b.index()].thread.take() {
                h.join().unwrap();
            }
        }
        let err = match net.send_attempt(a, b, "after".to_string()) {
            Err((e, msg)) => {
                assert_eq!(msg, "after", "message handed back for retry");
                e
            }
            Ok(_) => panic!("send over a dead endpoint succeeded"),
        };
        match err {
            NetError::Wire { peer, .. } => assert_eq!(peer, b),
            other => panic!("expected NetError::Wire, got {other}"),
        }
        // a's endpoint is still live; shut it down cleanly. b's Bye on
        // drop fails silently against the closed socket, which is fine.
        wire.shutdown();
    }

    /// An endpoint that answers each `Msg` only `delay` after it arrived.
    fn slow_endpoint(delay: Duration) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            read_preamble(&mut reader).unwrap();
            loop {
                let (seq, frame) = read_frame(&mut reader).unwrap();
                let reply = match frame {
                    Frame::Hello { name, .. } => Frame::Ack {
                        digest: fnv1a64(name.as_bytes()),
                        len: name.len() as u32,
                    },
                    Frame::Msg { payload, .. } => {
                        std::thread::sleep(delay);
                        Frame::Ack {
                            digest: fnv1a64(&payload),
                            len: payload.len() as u32,
                        }
                    }
                    other => other,
                };
                write_frame(&mut writer, seq, &reply).unwrap();
                writer.flush().unwrap();
                if reply == Frame::Bye {
                    return;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_reply_later_than_the_poll_is_slept_for() {
        // Fifty polls' worth of delay: the sender gives up looking, blocks
        // and still gets its acknowledgement. The second frame is larger
        // than any socket buffer, so its `write_all` only completes on a
        // connection that the poll left blocking.
        let (addr, endpoint) = slow_endpoint(REPLY_POLL * 50);
        let (mut net, wire) = socket_net(&[addr]);
        let b = net.add_peer("b"); // claims the slow endpoint
        let a = net.add_peer("a");
        net.set_link(a, b, LinkCost::lan());
        net.send(a, b, "small".to_string());
        net.send(a, b, "x".repeat(MAX_FRAME_LEN as usize - 64));
        assert_eq!(
            wire.wire_stats(b),
            WireStats {
                frames: 2,
                payload_bytes: 5 + MAX_FRAME_LEN as u64 - 64
            }
        );
        wire.shutdown();
        endpoint.join().unwrap();
    }

    #[test]
    fn pre_registered_endpoints_are_claimed_in_order() {
        let (addr1, h1) = spawn_endpoint_thread().unwrap();
        let (addr2, h2) = spawn_endpoint_thread().unwrap();
        let (mut net, wire) = socket_net(&[addr1, addr2]);
        let a = net.add_peer("a");
        let b = net.add_peer("b");
        assert_eq!(wire.endpoint_addr(a), addr1);
        assert_eq!(wire.endpoint_addr(b), addr2);
        wire.shutdown();
        h1.join().unwrap();
        h2.join().unwrap();
    }
}
