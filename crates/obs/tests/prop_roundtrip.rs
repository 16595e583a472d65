//! Property tests: arbitrary event streams round-trip bit-exactly
//! through the file sink, truncated files decode to the intact
//! prefix plus one typed tail error, and on arbitrarily damaged bytes
//! the batch and follow readers report exactly the same thing.
//!
//! Generation is hand-rolled over `axml-prng`'s SplitMix64 — the
//! workspace's only randomness source — with fixed seeds, so every run
//! checks the same (large) sample deterministically.

use axml_obs::{
    BinSink, FollowReader, FollowStep, LiveStats, Obs, ReadError, SharedBuf, TraceEvent,
    TraceReader, TraceSink,
};
use axml_prng::SplitMix64;
use axml_xml::ids::PeerId;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, Read};
use std::rc::Rc;

/// Names stressing the string fields: controls, quotes, non-ASCII,
/// astral plane, empty.
const NAMES: &[&str] = &[
    "eval",
    "apply-finish",
    "R11-push-select",
    "",
    "with space",
    "quote\"back\\slash",
    "line\nbreak\ttab\r",
    "ctl\u{1}\u{1f}\u{7f}\u{9f}",
    "unicode é 中 \u{2028}",
    "astral 𝒜🦀",
];

fn arb_peer(rng: &mut SplitMix64) -> PeerId {
    PeerId(rng.gen_range(0u32..200))
}

fn arb_name(rng: &mut SplitMix64) -> std::borrow::Cow<'static, str> {
    (*rng.choose(NAMES).unwrap()).into()
}

/// Finite times only, so that streams compare with `==` (NaN is pinned
/// bit for bit by `format_golden.rs` and the codec's unit tests).
fn arb_time(rng: &mut SplitMix64) -> f64 {
    match rng.gen_range(0u32..10) {
        0 => 0.0,
        1 => rng.gen_range(0u64..1_000_000) as f64, // integral
        _ => rng.next_f64() * 1.0e6,                // arbitrary mantissa
    }
}

fn arb_bytes(rng: &mut SplitMix64) -> u64 {
    match rng.gen_range(0u32..8) {
        0 => 0,
        1 => u64::MAX,
        _ => rng.gen_range(0u64..1_000_000_000),
    }
}

fn arb_kind(rng: &mut SplitMix64) -> axml_obs::MessageKind {
    *rng.choose(&axml_obs::MessageKind::ALL).unwrap()
}

fn arb_event(rng: &mut SplitMix64) -> TraceEvent {
    match rng.gen_range(0u32..12) {
        // 0 and 10–12 are out of range: a decoded stream may carry them
        0 => TraceEvent::Definition {
            def: rng.gen_range(0u32..=12) as u8,
            peer: arb_peer(rng),
            expr: arb_name(rng),
            at_ms: arb_time(rng),
        },
        1 => TraceEvent::Delegation {
            from: arb_peer(rng),
            to: arb_peer(rng),
            at_ms: arb_time(rng),
        },
        2 => TraceEvent::MessageSent {
            from: arb_peer(rng),
            to: arb_peer(rng),
            kind: arb_kind(rng),
            bytes: arb_bytes(rng),
            sent_ms: arb_time(rng),
            at_ms: arb_time(rng),
        },
        3 => TraceEvent::MessageDelivered {
            from: arb_peer(rng),
            to: arb_peer(rng),
            kind: arb_kind(rng),
            bytes: arb_bytes(rng),
            at_ms: arb_time(rng),
        },
        4 => TraceEvent::TaskScheduled {
            peer: arb_peer(rng),
            task: arb_name(rng),
            at_ms: arb_time(rng),
        },
        5 => TraceEvent::RuleAttempted {
            rule: arb_name(rng),
            accepted: rng.gen_bool(0.5),
            cost: arb_time(rng),
        },
        6 => {
            let n = rng.gen_range(0usize..6);
            TraceEvent::PlanChosen {
                site: arb_peer(rng),
                explored: rng.gen_range(0usize..10_000),
                cost: arb_time(rng),
                trace: (0..n).map(|_| arb_name(rng)).collect(),
            }
        }
        7 => TraceEvent::ServiceCall {
            caller: arb_peer(rng),
            provider: arb_peer(rng),
            service: arb_name(rng).into(),
            call_id: arb_bytes(rng),
            at_ms: arb_time(rng),
        },
        8 => TraceEvent::SubscriptionDelta {
            subscription: arb_bytes(rng),
            provider: arb_peer(rng),
            fresh: rng.gen_range(0usize..1000),
            suppressed: rng.gen_range(0usize..1000),
            at_ms: arb_time(rng),
        },
        9 => TraceEvent::MessageDropped {
            from: arb_peer(rng),
            to: arb_peer(rng),
            kind: arb_kind(rng),
            bytes: arb_bytes(rng),
            at_ms: arb_time(rng),
        },
        10 => TraceEvent::RetryScheduled {
            from: arb_peer(rng),
            to: arb_peer(rng),
            kind: arb_kind(rng),
            attempt: rng.gen_range(0u32..100),
            backoff_ms: arb_time(rng),
            at_ms: arb_time(rng),
        },
        _ => TraceEvent::Failover {
            peer: arb_peer(rng),
            class: arb_name(rng).into(),
            dead: arb_peer(rng),
            at_ms: arb_time(rng),
        },
    }
}

fn arb_stream(rng: &mut SplitMix64, max_len: usize) -> Vec<TraceEvent> {
    let n = rng.gen_range(0..=max_len);
    (0..n).map(|_| arb_event(rng)).collect()
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

fn decode(bytes: &[u8]) -> Vec<TraceEvent> {
    TraceReader::new(bytes)
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap()
}

/// Bit-level equality: `PartialEq` on `f64` treats `-0.0 == 0.0`, so
/// compare timestamps through their bit patterns via the binary codec.
fn assert_bit_exact(a: &[TraceEvent], b: &[TraceEvent]) {
    assert_eq!(a, b);
    assert_eq!(encode_bin(a), encode_bin(b), "bitwise encodings differ");
}

#[test]
fn prop_bin_round_trip() {
    let mut rng = SplitMix64::new(0xB1A5_0001);
    for _ in 0..200 {
        let events = arb_stream(&mut rng, 50);
        // recorded as the engine records them: counted, then encoded
        let buf = SharedBuf::new();
        let mut obs = Obs::new();
        obs.set_sink(Box::new(BinSink::new(buf.clone())));
        for e in &events {
            obs.record(e.clone());
        }
        obs.clear_sink().unwrap();
        let decoded = decode(&buf.bytes());
        assert_bit_exact(&events, &decoded);
        // one mapping from events to counters: the decoded stream's fold
        // counts what recording counted
        let mut live = LiveStats::new();
        for e in &decoded {
            live.fold(e);
        }
        assert_eq!(live.metrics().to_json(), obs.metrics.to_json());
        assert!(live
            .metrics()
            .dropped_links()
            .eq(obs.metrics.dropped_links()));
    }
}

#[test]
fn prop_truncated_binary_yields_prefix_and_typed_error() {
    let mut rng = SplitMix64::new(0xB1A5_0004);
    for _ in 0..100 {
        let mut events = arb_stream(&mut rng, 30);
        if events.is_empty() {
            events.push(arb_event(&mut rng));
        }
        let bytes = encode_bin(&events);
        // Cut strictly inside the record region (after the 5-byte
        // header, before the end).
        let cut = rng.gen_range(5..bytes.len());
        let items: Vec<_> = TraceReader::new(&bytes[..cut]).unwrap().collect();
        let n_ok = items.iter().take_while(|i| i.is_ok()).count();
        // The decodable prefix is a prefix of the original stream…
        let prefix: Vec<_> = items.into_iter().take(n_ok).map(Result::unwrap).collect();
        assert_eq!(prefix[..], events[..n_ok]);
        // …and re-reading tells us what follows it: either the cut fell
        // exactly on a record boundary (clean end) or one typed
        // Truncated error and nothing after.
        let mut reader = TraceReader::new(&bytes[..cut]).unwrap();
        for _ in 0..n_ok {
            reader.next().unwrap().unwrap();
        }
        match reader.next() {
            None => {} // boundary cut
            Some(Err(ReadError::Truncated { record, .. })) => {
                assert_eq!(record as usize, n_ok);
                assert!(
                    reader.next().is_none(),
                    "reader must fuse after the tail error"
                );
            }
            Some(other) => panic!("expected truncation, got {other:?}"),
        }
    }
}

// ---- batch ≡ follow: one splitter, so one verdict per byte stream ----

/// A byte queue the test fills while a `FollowReader` drains it; an
/// empty queue reads as "no bytes yet".
#[derive(Clone, Default)]
struct Pipe(Rc<RefCell<VecDeque<u8>>>);

impl Read for Pipe {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let mut queue = self.0.borrow_mut();
        let n = out.len().min(queue.len());
        for (slot, byte) in out.iter_mut().zip(queue.drain(..n)) {
            *slot = byte;
        }
        Ok(n)
    }
}

/// Everything `TraceReader` says about `bytes`: each event (Debug
/// rendering, so float bits count) or error (Display rendering), in
/// order, a constructor error included.
fn batch_verdict(bytes: &[u8]) -> Vec<String> {
    match TraceReader::new(bytes) {
        Err(e) => vec![e.to_string()],
        Ok(reader) => reader
            .map(|item| match item {
                Ok(e) => format!("{e:?}"),
                Err(e) => e.to_string(),
            })
            .collect(),
    }
}

/// The same for a `FollowReader` fed `bytes` in random chunks of up to
/// `max_chunk` bytes, with a dry poll before each one, then `finish`.
fn follow_verdict(bytes: &[u8], max_chunk: usize, rng: &mut SplitMix64) -> Vec<String> {
    let pipe = Pipe::default();
    let mut reader = FollowReader::new(pipe.clone());
    let (mut seen, mut rest) = (Vec::new(), bytes);
    loop {
        match reader.poll() {
            Ok(FollowStep::Event(e)) => seen.push(format!("{e:?}")),
            Ok(FollowStep::Malformed { record, detail }) => {
                seen.push(ReadError::Malformed { record, detail }.to_string())
            }
            Err(e) => {
                seen.push(e.to_string());
                return seen; // fatal: the stream is over
            }
            Ok(FollowStep::Pending) if rest.is_empty() => break,
            Ok(FollowStep::Pending) => {
                let n = 1 + rng.gen_range(0..rest.len().min(max_chunk));
                pipe.0.borrow_mut().extend(&rest[..n]);
                rest = &rest[n..];
            }
        }
    }
    if let Err(e) = reader.finish() {
        seen.push(e.to_string());
    }
    seen
}

#[test]
fn prop_batch_equals_follow_under_byte_mutations() {
    let mut rng = SplitMix64::new(0xB1A5_0006);
    let (mut with_events, mut with_errors) = (0, 0);
    for case in 0..600 {
        let events = arb_stream(&mut rng, 12);
        let mut bytes = encode_bin(&events);
        for _ in 0..rng.gen_range(1u32..4) {
            rng.mutate_bytes(&mut bytes);
        }
        let batch = batch_verdict(&bytes);
        assert_eq!(
            batch,
            follow_verdict(&bytes, 40, &mut rng),
            "case {case}: readers disagree on {bytes:?}"
        );
        // Debug-rendered events start with the variant name, errors
        // with a lowercase word.
        with_events += usize::from(batch.iter().any(|v| v.starts_with(char::is_uppercase)));
        with_errors += usize::from(batch.iter().any(|v| v.starts_with(char::is_lowercase)));
    }
    // The mutations must leave both decodable records and damage.
    assert!(
        with_events > 200 && with_errors > 200,
        "{with_events} / {with_errors}"
    );
}

#[test]
fn batch_equals_follow_on_the_reader_drift_regressions() {
    let mut rng = SplitMix64::new(0xB1A5_0007);
    let events = arb_stream(&mut SplitMix64::new(0xB1A5_0008), 20);

    // A complete record whose payload does not decode (a string field
    // that is not UTF-8), mid-stream: both modes report it once and
    // keep every later event. (Batch mode once lost them all.)
    let mut bytes = encode_bin(&events);
    let second = 5 + 4 + u32::from_le_bytes(bytes[5..9].try_into().unwrap()) as usize;
    let mut bad = vec![0, 0, 0, 0, 5]; // a task event…
    bad.extend_from_slice(&7u32.to_le_bytes()); // …at peer 7…
    bad.extend_from_slice(&2u32.to_le_bytes()); // …whose 2-byte name…
    bad.extend_from_slice(&[0xFF, 0xFE]); // …is no UTF-8
    bad.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
    bad[0] = (bad.len() - 4) as u8;
    bytes.splice(second..second, bad);
    let batch = batch_verdict(&bytes);
    assert_eq!(batch, follow_verdict(&bytes, 40, &mut rng));
    assert_eq!(batch.len(), events.len() + 1);
    assert!(
        batch[1].starts_with("malformed trace record 1:") && batch[1].contains("UTF-8"),
        "{}",
        batch[1]
    );
    let decoded = batch.iter().filter(|v| !v.contains("malformed")).count();
    assert_eq!(decoded, events.len(), "every later event still decodes");

    // A length prefix past the 16 MiB record cap, with that much input
    // behind it: the same fatal, typed error in both modes, and neither
    // buffers the "record" to find out.
    let mut endless = encode_bin(&events[..1]);
    endless.extend_from_slice(&((16u32 << 20) + 1).to_le_bytes());
    endless.resize(endless.len() + (16 << 20) + (64 << 10), b'{');
    let batch = batch_verdict(&endless);
    assert_eq!(batch, follow_verdict(&endless, 64 << 10, &mut rng));
    assert_eq!(batch.len(), 2, "the cap is fatal: {batch:?}");
    assert!(
        batch[1].starts_with("malformed trace record 1:") && batch[1].contains("cap"),
        "{}",
        batch[1]
    );
}
