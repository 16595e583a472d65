//! Follow-mode tests: a [`FollowReader`] tailing a growing trace must
//! absorb arbitrarily torn writes (every record may arrive one byte at
//! a time), survive a killed writer with a *typed* tail error, and
//! treat socket EOF as end-of-stream — never panicking, whatever the
//! cut point.
//!
//! Generation reuses the deterministic SplitMix64 approach of
//! `prop_roundtrip.rs`: fixed seeds, same large sample every run.

use axml_obs::{BinSink, FollowReader, FollowStep, ReadError, SharedBuf, TraceEvent, TraceSink};
use axml_prng::SplitMix64;
use axml_xml::ids::PeerId;
use std::io::{self, Read, Write};

/// A `Read` handle over a shared growable buffer: the "file" another
/// writer keeps appending to.
#[derive(Clone)]
struct SharedFile {
    buf: std::sync::Arc<std::sync::Mutex<(Vec<u8>, usize)>>, // (bytes, read cursor)
}

impl SharedFile {
    fn new() -> Self {
        Self {
            buf: std::sync::Arc::new(std::sync::Mutex::new((Vec::new(), 0))),
        }
    }

    fn append(&self, bytes: &[u8]) {
        self.buf.lock().unwrap().0.extend_from_slice(bytes);
    }
}

impl Read for SharedFile {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let mut g = self.buf.lock().unwrap();
        let (bytes, cursor) = &mut *g;
        let avail = &bytes[*cursor..];
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        *cursor += n;
        Ok(n)
    }
}

fn sample_events(n: usize, seed: u64) -> Vec<TraceEvent> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| match rng.gen_range(0u32..4) {
            0 => TraceEvent::Delegation {
                from: PeerId(rng.gen_range(0u32..8)),
                to: PeerId(rng.gen_range(0u32..8)),
                at_ms: i as f64,
            },
            1 => TraceEvent::MessageSent {
                from: PeerId(0),
                to: PeerId(1),
                kind: axml_obs::MessageKind::Request,
                bytes: rng.gen_range(0u64..100_000),
                sent_ms: i as f64,
                at_ms: i as f64 + 1.5,
            },
            2 => TraceEvent::RuleAttempted {
                rule: "R11-push-select".into(),
                accepted: rng.gen_bool(0.5),
                cost: rng.next_f64() * 100.0,
            },
            _ => TraceEvent::ServiceCall {
                caller: PeerId(2),
                provider: PeerId(3),
                service: "scan \"quoted\" 中".into(),
                call_id: rng.gen_range(0u64..1000),
                at_ms: i as f64,
            },
        })
        .collect()
}

fn encode_bin(events: &[TraceEvent]) -> Vec<u8> {
    let buf = SharedBuf::new();
    let mut sink = BinSink::new(buf.clone());
    for e in events {
        sink.record(e.clone());
    }
    sink.flush().unwrap();
    buf.bytes()
}

/// Poll until Pending, collecting events (malformed records fail the
/// test — these streams are intact).
fn drain<R: Read>(reader: &mut FollowReader<R>) -> Vec<TraceEvent> {
    let mut out = Vec::new();
    loop {
        match reader.poll().expect("intact stream must not error") {
            FollowStep::Event(e) => out.push(e),
            FollowStep::Malformed { record, detail } => {
                panic!("unexpected malformed record {record}: {detail}")
            }
            FollowStep::Pending => return out,
        }
    }
}

#[test]
fn prop_single_byte_drip_decodes_everything() {
    // The cruelest partial write: every byte arrives alone, with a
    // Pending-producing dry spell after each one.
    let events = sample_events(20, 0xF0110001);
    let bytes = encode_bin(&events);
    let file = SharedFile::new();
    let mut reader = FollowReader::new(file.clone());
    let mut got = Vec::new();
    for b in &bytes {
        // Source is dry right now…
        got.extend(drain(&mut reader));
        assert!(reader.hit_eof(), "a dry drain ends at EOF");
        // …then exactly one more byte arrives.
        file.append(&[*b]);
    }
    got.extend(drain(&mut reader));
    assert_eq!(got, events, "single-byte drip lost events");
    assert!(reader.finish().is_ok(), "clean tail");
}

#[test]
fn prop_random_chunk_splits_decode_everything() {
    // Arbitrary chunking: split the encoding at random points, append
    // chunk by chunk to a shared "file", draining between appends.
    let mut rng = SplitMix64::new(0xF0110002);
    for case in 0..60 {
        let events = sample_events(1 + (case % 25), 0xF0110003 ^ case as u64);
        let bytes = encode_bin(&events);
        let file = SharedFile::new();
        let mut reader = FollowReader::new(file.clone());
        let mut got = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let step = 1 + rng.gen_range(0usize..7);
            let end = (pos + step).min(bytes.len());
            file.append(&bytes[pos..end]);
            pos = end;
            got.extend(drain(&mut reader));
        }
        got.extend(drain(&mut reader));
        assert_eq!(got, events, "case {case}: chunked follow lost events");
        assert!(reader.finish().is_ok(), "case {case}");
    }
}

#[test]
fn prop_writer_death_types_the_tail_and_never_panics() {
    // Kill the writer at every possible byte offset: the reader yields
    // the decodable prefix, then finish() reports either a clean end or
    // a typed Truncated — never a panic, never a fabricated event.
    let events = sample_events(6, 0xF0110004);
    let bytes = encode_bin(&events);
    for cut in 0..=bytes.len() {
        let file = SharedFile::new();
        file.append(&bytes[..cut]);
        let mut reader = FollowReader::new(file);
        let mut got = Vec::new();
        loop {
            match reader.poll() {
                Ok(FollowStep::Event(e)) => got.push(e),
                Ok(FollowStep::Malformed { .. }) => {}
                Ok(FollowStep::Pending) => break,
                Err(e) => panic!("cut {cut}: poll errored on intact prefix: {e}"),
            }
        }
        assert!(
            got.len() <= events.len() && got[..] == events[..got.len()],
            "cut {cut}: decoded events must be a prefix"
        );
        match reader.finish() {
            Ok(()) => {}                           // boundary cut
            Err(ReadError::Truncated { .. }) => {} // typed tail damage
            Err(other) => panic!("cut {cut}: unexpected tail error {other}"),
        }
    }
}

#[test]
fn socket_eof_ends_the_stream_with_typed_tail() {
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let events = sample_events(12, 0xF0110005);
    let bytes = encode_bin(&events);
    // Writer: send everything but the last 3 bytes, then die.
    let cut = bytes.len() - 3;
    let writer = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&bytes[..cut]).unwrap();
        // socket closed on drop: the reader sees EOF mid-record
    });
    let (stream, _) = listener.accept().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    let mut reader = FollowReader::new(stream);
    let mut got = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !reader.hit_eof() {
        assert!(std::time::Instant::now() < deadline, "socket follow hung");
        match reader.poll().expect("no fatal error on a torn socket") {
            FollowStep::Event(e) => got.push(e),
            FollowStep::Malformed { record, detail } => {
                panic!("malformed record {record}: {detail}")
            }
            FollowStep::Pending => {} // timeout tick or EOF
        }
    }
    writer.join().unwrap();
    assert_eq!(
        got[..],
        events[..events.len() - 1],
        "all but the torn record"
    );
    match reader.finish() {
        Err(ReadError::Truncated { record, detail }) => {
            assert_eq!(record as usize, events.len() - 1);
            assert!(detail.contains("partial record"), "{detail}");
        }
        other => panic!("expected a typed Truncated tail, got {other:?}"),
    }
}

#[test]
fn bad_header_poisons_the_reader_without_panicking() {
    let file = SharedFile::new();
    file.append(b"GARBAGE not a trace\n");
    let mut reader = FollowReader::new(file.clone());
    match reader.poll() {
        Err(ReadError::BadHeader(_)) => {}
        other => panic!("expected BadHeader, got {other:?}"),
    }
    // Poisoned: later polls are inert Pending + EOF, even as bytes arrive.
    file.append(b"more bytes");
    for _ in 0..3 {
        assert!(matches!(reader.poll(), Ok(FollowStep::Pending)));
        assert!(reader.hit_eof());
    }
}

#[test]
fn malformed_record_is_skippable_mid_stream() {
    let events = sample_events(4, 0xF0110006);
    let encoded = encode_bin(&events);
    // A well-framed record (length 2) whose payload is no event: tag 0.
    let first_end = 5 + 4 + u32::from_le_bytes(encoded[5..9].try_into().unwrap()) as usize;
    let mut bytes = encoded[..first_end].to_vec();
    bytes.extend_from_slice(&[2, 0, 0, 0, 0, 0]);
    bytes.extend_from_slice(&encoded[first_end..]);
    let file = SharedFile::new();
    file.append(&bytes);
    let mut reader = FollowReader::new(file);
    let (mut got, mut bad) = (Vec::new(), 0);
    loop {
        match reader.poll().unwrap() {
            FollowStep::Event(e) => got.push(e),
            FollowStep::Malformed { record, .. } => {
                assert_eq!(record, 1);
                bad += 1;
            }
            FollowStep::Pending => break,
        }
    }
    assert_eq!(bad, 1, "exactly the injected record is malformed");
    assert_eq!(got, events, "decoding resumed after the bad record");
}
