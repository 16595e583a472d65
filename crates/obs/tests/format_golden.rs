//! Cross-commit format pin: literal bytes of every wire shape.
//!
//! Every other codec test is a round trip, and a round trip passes when
//! encoder and decoder drift *together* (a swapped field order, a
//! widened integer). These literals were captured
//! once from the running code; a refactor must reproduce them byte for
//! byte and must decode them to the same events. Re-pin only for a
//! deliberate format change (and bump the format's version byte).

use axml_net::frame::{encode_frame, read_frame, Frame};
use axml_obs::{BinSink, DataTag, MessageKind, SharedBuf, TraceEvent, TraceReader, TraceSink};
use axml_xml::ids::PeerId;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}

/// One event of every kind (two plans: an empty and a multi-element
/// rule chain), with a NaN timestamp, an adversarial string and
/// `u64::MAX` counters.
fn events() -> Vec<TraceEvent> {
    vec![
        TraceEvent::Definition {
            def: 6,
            peer: PeerId(1),
            expr: "sc".into(),
            at_ms: 0.5,
        },
        TraceEvent::Delegation {
            from: PeerId(0),
            to: PeerId(1),
            at_ms: f64::NAN,
        },
        TraceEvent::MessageSent {
            from: PeerId(0),
            to: PeerId(1),
            kind: MessageKind::Data(DataTag::Fetch),
            bytes: 128,
            sent_ms: 1.5,
            at_ms: 2.0,
        },
        TraceEvent::MessageDelivered {
            from: PeerId(3),
            to: PeerId(4_000_000_000),
            kind: MessageKind::Response,
            bytes: u64::MAX,
            at_ms: 2.5,
        },
        TraceEvent::TaskScheduled {
            peer: PeerId(1),
            task: "eval".into(),
            at_ms: 2.5,
        },
        TraceEvent::RuleAttempted {
            rule: "R11-push-select".into(),
            accepted: true,
            cost: 12.5,
        },
        TraceEvent::PlanChosen {
            site: PeerId(0),
            explored: 42,
            cost: 10.0,
            trace: vec![],
        },
        TraceEvent::PlanChosen {
            site: PeerId(2),
            explored: 7,
            cost: 0.001,
            trace: vec!["R10-delegate".into(), "R11-push-select".into()],
        },
        TraceEvent::ServiceCall {
            caller: PeerId(0),
            provider: PeerId(1),
            service: "svc\"\\\n\u{1}\u{7f} 中🦀".into(),
            call_id: u64::MAX,
            at_ms: 3.0,
        },
        TraceEvent::SubscriptionDelta {
            subscription: 7,
            provider: PeerId(1),
            fresh: 2,
            suppressed: 5,
            at_ms: 4.0,
        },
        TraceEvent::MessageDropped {
            from: PeerId(0),
            to: PeerId(1),
            kind: MessageKind::Request,
            bytes: 96,
            at_ms: 5.0,
        },
        TraceEvent::RetryScheduled {
            from: PeerId(0),
            to: PeerId(1),
            kind: MessageKind::Data(DataTag::ReplicaUpdate),
            attempt: 2,
            backoff_ms: 12.5,
            at_ms: 5.0,
        },
        TraceEvent::Failover {
            peer: PeerId(0),
            class: "catalog".into(),
            dead: PeerId(1),
            at_ms: 6.0,
        },
    ]
}

/// The `BinSink` rendering of [`events`]: the 5-byte header, then one
/// hex string per length-prefixed record.
const AXTR_HEADER: &str = "4158545201";
const AXTR_RECORDS: &[&str] = &[
    "14000000010601000000020000007363000000000000e03f",
    "11000000020000000001000000000000000000f87f",
    "22000000030000000001000000068000000000000000000000000000f83f0000000000000040",
    "1a000000040300000000286bee02ffffffffffffffff0000000000000440",
    "150000000501000000040000006576616c0000000000000440",
    "1d000000060f0000005231312d707573682d73656c656374010000000000002940",
    "1500000007000000002a000000000000000000244000000000",
    "38000000070200000007000000fca9f1d24d62503f020000000c0000005231302d64656c65676174650f0000005231312d707573682d73656c656374",
    "2d00000008000000000100000010000000737663225c0a017f20e4b8adf09fa680ffffffffffffffff0000000000000840",
    "1d0000000907000000000000000100000002000000050000000000000000001040",
    "1a0000000a00000000010000000060000000000000000000000000001440",
    "1e0000000b00000000010000000a0200000000000000000029400000000000001440",
    "1c0000000c0000000007000000636174616c6f67010000000000000000001840",
];

/// Index of the NaN-timestamp event, which `PartialEq` cannot compare.
const NAN_EVENT: usize = 1;

fn assert_same_events(decoded: &[TraceEvent], what: &str) {
    let expected = events();
    assert_eq!(decoded.len(), expected.len(), "{what}");
    for (i, (got, want)) in decoded.iter().zip(&expected).enumerate() {
        if i == NAN_EVENT {
            assert!(
                matches!(got, TraceEvent::Delegation { from: PeerId(0), to: PeerId(1), at_ms }
                    if at_ms.is_nan()),
                "{what}: {got:?}"
            );
        } else {
            assert_eq!(got, want, "{what}: event {i}");
        }
    }
}

#[test]
fn axtr_records_are_pinned() {
    assert_eq!(events().len(), AXTR_RECORDS.len());
    let mut golden = unhex(AXTR_HEADER);
    for (e, record) in events().into_iter().zip(AXTR_RECORDS) {
        let buf = SharedBuf::new();
        let mut sink = BinSink::new(buf.clone());
        sink.record(e.clone());
        sink.flush().unwrap();
        let bytes = buf.bytes();
        assert_eq!(hex(&bytes[..5]), AXTR_HEADER);
        assert_eq!(hex(&bytes[5..]), *record, "encoder drifted: {e:?}");
        golden.extend(unhex(record));
    }

    let decoded: Vec<TraceEvent> = TraceReader::new(&golden[..])
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    assert_same_events(&decoded, "axtr decoder drifted");
    match &decoded[NAN_EVENT] {
        TraceEvent::Delegation { at_ms, .. } => assert_eq!(at_ms.to_bits(), f64::NAN.to_bits()),
        other => panic!("{other:?}"),
    }
}

/// One frame of every type: `(sequence number, frame, encoded hex)`.
fn frames() -> Vec<(u64, Frame, &'static str)> {
    vec![
        (
            1,
            Frame::Hello {
                peer: 3,
                name: "mirror-3 中".into(),
            },
            "01010000000000000014000000030000000c0000006d6972726f722d3320e4b8ad",
        ),
        (
            0x0102_0304_0506_0708,
            Frame::Msg {
                from: 0,
                to: 4_000_000_000,
                payload: b"<catalog/>".to_vec(),
            },
            "020807060504030201120000000000000000286bee3c636174616c6f672f3e",
        ),
        (
            2,
            Frame::Msg {
                from: 1,
                to: 2,
                payload: Vec::new(),
            },
            "020200000000000000080000000100000002000000",
        ),
        (
            3,
            Frame::Ack {
                digest: 0xDEAD_BEEF_0BAD_F00D,
                len: 10,
            },
            "0303000000000000000c0000000df0ad0befbeadde0a000000",
        ),
        (u64::MAX, Frame::Bye, "04ffffffffffffffff00000000"),
        (
            4,
            Frame::Stats {
                frames: 7,
                payload_bytes: 1234,
            },
            "050400000000000000100000000700000000000000d204000000000000",
        ),
    ]
}

#[test]
fn wire_frames_are_pinned() {
    for (seq, frame, golden) in frames() {
        assert_eq!(hex(&encode_frame(seq, &frame)), golden, "{frame:?}");
        let (got_seq, got) = read_frame(&mut &unhex(golden)[..]).unwrap();
        assert_eq!((got_seq, got), (seq, frame));
    }
}
