//! Wire-level tests for the AXTR socket protocol against **real** TCP
//! connections: framing round-trips through the kernel, partial reads
//! and short writes, and the mapping of physical failures (peer
//! disconnects, corrupt acknowledgements) to typed [`NetError`]s.

use axml_net::frame::{
    encode_frame, fnv1a64, read_frame, read_preamble, write_frame, write_preamble, Frame,
    FrameError,
};
use axml_net::socket::{serve_connection, spawn_endpoint_thread, SocketTransport};
use axml_net::{LinkCost, NetError, SimTransport};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;

/// Dial an endpoint and run the client half of the handshake by hand.
fn dial(addr: SocketAddr) -> (BufReader<TcpStream>, BufWriter<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    let writer = BufWriter::new(stream);
    (reader, writer)
}

#[test]
fn frames_round_trip_over_a_real_socket() {
    let (addr, handle) = spawn_endpoint_thread().unwrap();
    let (mut reader, mut writer) = dial(addr);
    write_preamble(&mut writer).unwrap();

    // Hello is acknowledged with the digest of the peer *name*.
    write_frame(
        &mut writer,
        0,
        &Frame::Hello {
            peer: 3,
            name: "mirror".into(),
        },
    )
    .unwrap();
    writer.flush().unwrap();
    let (seq, reply) = read_frame(&mut reader).unwrap();
    assert_eq!(seq, 0, "replies reuse the request sequence number");
    assert_eq!(
        reply,
        Frame::Ack {
            digest: fnv1a64(b"mirror"),
            len: 6
        }
    );

    // Every Msg is acknowledged with the digest of its payload.
    for (i, payload) in [b"alpha".as_slice(), b"", b"\x00\xFF\x00binary"]
        .iter()
        .enumerate()
    {
        let seq = 1 + i as u64;
        write_frame(
            &mut writer,
            seq,
            &Frame::Msg {
                from: 0,
                to: 3,
                payload: payload.to_vec(),
            },
        )
        .unwrap();
        writer.flush().unwrap();
        let (rseq, reply) = read_frame(&mut reader).unwrap();
        assert_eq!(rseq, seq);
        assert_eq!(
            reply,
            Frame::Ack {
                digest: fnv1a64(payload),
                len: payload.len() as u32
            }
        );
    }

    // Stats reports the endpoint's lifetime counters; Bye is echoed.
    write_frame(
        &mut writer,
        4,
        &Frame::Stats {
            frames: 0,
            payload_bytes: 0,
        },
    )
    .unwrap();
    writer.flush().unwrap();
    let (_, reply) = read_frame(&mut reader).unwrap();
    assert_eq!(
        reply,
        Frame::Stats {
            frames: 3,
            payload_bytes: 14
        }
    );
    write_frame(&mut writer, 5, &Frame::Bye).unwrap();
    writer.flush().unwrap();
    let (_, reply) = read_frame(&mut reader).unwrap();
    assert_eq!(reply, Frame::Bye);
    handle.join().unwrap();
}

#[test]
fn partial_writes_are_absorbed_by_the_reader() {
    // Ship the preamble and a frame one byte at a time with a flush
    // after every byte: the endpoint's `read_exact` loops must absorb
    // arbitrary fragmentation without ever seeing a torn frame.
    let (addr, handle) = spawn_endpoint_thread().unwrap();
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let mut bytes = Vec::new();
    write_preamble(&mut bytes).unwrap();
    bytes.extend_from_slice(&encode_frame(
        0,
        &Frame::Msg {
            from: 1,
            to: 0,
            payload: b"fragmented".to_vec(),
        },
    ));
    for b in bytes {
        writer.write_all(&[b]).unwrap();
        writer.flush().unwrap();
    }
    let (seq, reply) = read_frame(&mut reader).unwrap();
    assert_eq!(seq, 0);
    assert_eq!(
        reply,
        Frame::Ack {
            digest: fnv1a64(b"fragmented"),
            len: 10
        }
    );
    write_frame(&mut writer, 1, &Frame::Bye).unwrap();
    let (_, reply) = read_frame(&mut reader).unwrap();
    assert_eq!(reply, Frame::Bye);
    handle.join().unwrap();
}

#[test]
fn a_stream_cut_mid_frame_is_an_eof_error_not_a_hang() {
    // A short write — the sender dies after a strict prefix of a frame —
    // must surface on the reading side as `FrameError::Io(UnexpectedEof)`.
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let reader_side: JoinHandle<FrameError> = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream);
        read_preamble(&mut reader).unwrap();
        let (_, first) = read_frame(&mut reader).unwrap();
        assert!(
            matches!(first, Frame::Msg { .. }),
            "whole frame arrives intact"
        );
        read_frame(&mut reader).unwrap_err()
    });
    let mut writer = TcpStream::connect(addr).unwrap();
    write_preamble(&mut writer).unwrap();
    write_frame(
        &mut writer,
        0,
        &Frame::Msg {
            from: 0,
            to: 1,
            payload: b"whole".to_vec(),
        },
    )
    .unwrap();
    let truncated = encode_frame(
        1,
        &Frame::Msg {
            from: 0,
            to: 1,
            payload: b"cut short".to_vec(),
        },
    );
    writer.write_all(&truncated[..truncated.len() / 2]).unwrap();
    drop(writer); // short write, then the connection dies
    match reader_side.join().unwrap() {
        FrameError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("expected an I/O eof error, got {other}"),
    }
}

#[test]
fn endpoint_treats_eof_between_frames_as_clean_disconnect() {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        serve_connection(stream)
    });
    let mut writer = TcpStream::connect(addr).unwrap();
    write_preamble(&mut writer).unwrap();
    write_frame(
        &mut writer,
        0,
        &Frame::Msg {
            from: 0,
            to: 1,
            payload: b"only".to_vec(),
        },
    )
    .unwrap();
    let mut reader = writer.try_clone().unwrap();
    let mut ack = [0u8; 13 + 12];
    reader.read_exact(&mut ack).unwrap();
    drop(writer);
    drop(reader); // vanish without a Bye
    let (frames, payload_bytes) = server.join().unwrap().expect("clean disconnect");
    assert_eq!((frames, payload_bytes), (1, 4));
}

/// A rogue endpoint: completes the Hello handshake correctly, then runs
/// `and_then` with the connection (to die, corrupt an ack, …).
fn rogue_endpoint(
    and_then: impl FnOnce(BufReader<TcpStream>, BufWriter<TcpStream>) + Send + 'static,
) -> SocketAddr {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        read_preamble(&mut reader).unwrap();
        let (seq, frame) = read_frame(&mut reader).unwrap();
        let name = match frame {
            Frame::Hello { name, .. } => name,
            other => panic!("expected Hello, got {other:?}"),
        };
        write_frame(
            &mut writer,
            seq,
            &Frame::Ack {
                digest: fnv1a64(name.as_bytes()),
                len: name.len() as u32,
            },
        )
        .unwrap();
        writer.flush().unwrap();
        and_then(reader, writer);
    });
    addr
}

/// A network over a socket wire whose first peer claims the endpoint at
/// `addr`; later peers get loopback thread endpoints.
fn over_socket(addr: SocketAddr) -> SimTransport<String> {
    let mut wire = SocketTransport::new();
    wire.register_endpoint(addr);
    SimTransport::over(Box::new(wire))
}

#[test]
fn peer_disconnect_surfaces_as_typed_wire_error() {
    // b's endpoint drops the connection right after the handshake.
    let addr = rogue_endpoint(|_reader, _writer| {});
    let mut net = over_socket(addr);
    let b = net.add_peer("b");
    let a = net.add_peer("a");
    net.set_link(a, b, LinkCost::lan());
    let err = match net.send_attempt(a, b, "doomed".to_string()) {
        Err((e, msg)) => {
            assert_eq!(msg, "doomed", "the message comes back for retry");
            e
        }
        Ok(_) => panic!("send over a dead connection succeeded"),
    };
    match err {
        NetError::Wire { peer, ref detail } => {
            assert_eq!(peer, b);
            assert!(detail.contains("wire i/o"), "{detail}");
        }
        ref other => panic!("expected NetError::Wire, got {other}"),
    }
}

#[test]
fn corrupt_acknowledgement_surfaces_as_typed_wire_error() {
    // b's endpoint acknowledges the message with the wrong digest.
    let addr = rogue_endpoint(|mut reader, mut writer| {
        let (seq, frame) = read_frame(&mut reader).unwrap();
        assert!(matches!(frame, Frame::Msg { .. }));
        write_frame(
            &mut writer,
            seq,
            &Frame::Ack {
                digest: 0xBAD,
                len: 0,
            },
        )
        .unwrap();
        writer.flush().unwrap();
    });
    let mut net = over_socket(addr);
    let b = net.add_peer("b");
    let a = net.add_peer("a");
    net.set_link(a, b, LinkCost::lan());
    let err = match net.send_attempt(a, b, "tampered".to_string()) {
        Err((e, _)) => e,
        Ok(_) => panic!("corrupt ack was accepted"),
    };
    match err {
        NetError::Wire { peer, ref detail } => {
            assert_eq!(peer, b);
            assert!(detail.contains("mismatch"), "{detail}");
        }
        ref other => panic!("expected NetError::Wire, got {other}"),
    }
}
