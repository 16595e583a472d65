//! The message codec, from outside: a [`Body`] is its trees' serialization
//! (length and bytes), a message with lazy bodies is indistinguishable from
//! its rendered twin, `decode` inverts `frame_bytes` and rejects — never
//! panics on — everything else.

use axml_core::error::CoreError;
use axml_core::message::{AxmlMessage, Body};
use axml_net::bytes::{BytesError, PutBytes};
use axml_net::Payload;
use axml_obs::DataTag;
use axml_prng::SplitMix64;
use axml_xml::ids::{NodeAddr, PeerId};
use axml_xml::tree::{NodeId, Tree};

fn addr(peer: u32, doc: &str, node: usize) -> NodeAddr {
    NodeAddr::new(PeerId(peer), doc, NodeId::from_index(node).unwrap())
}

/// A random tree: labels and attribute names from a small alphabet,
/// text and attribute values full of the characters that escape,
/// empty elements, mixed content.
fn arb_tree(rng: &mut SplitMix64) -> Tree {
    const NAMES: [&str; 5] = ["a", "pkg", "long-element-name", "x1", "é"];
    const TEXTS: [&str; 6] = ["", "plain", "a<b", "x & y > z", "say \"hi\"", "中 🦀"];
    let pick = |rng: &mut SplitMix64, xs: &[&'static str]| *rng.choose(xs).unwrap();
    let mut t = Tree::new(pick(rng, &NAMES));
    let mut open = vec![t.root()];
    for _ in 0..rng.gen_range(0usize..24) {
        let parent = *rng.choose(&open).unwrap();
        if rng.gen_bool(0.3) {
            t.add_text(parent, pick(rng, &TEXTS));
            continue;
        }
        let el = t.add_element(parent, pick(rng, &NAMES));
        for name in NAMES.iter().take(rng.gen_range(0usize..3)) {
            t.set_attr(el, *name, pick(rng, &TEXTS)).unwrap();
        }
        open.push(el);
    }
    t
}

/// A handle from `t`'s arena: the tree itself, or a view of one of
/// its elements (whose root is then not the arena's).
fn arb_handle(rng: &mut SplitMix64, t: &Tree) -> Tree {
    let elements: Vec<NodeId> = t
        .descendants_with_self(t.root())
        .filter(|&n| t.node(n).is_element())
        .collect();
    t.subtree(*rng.choose(&elements).unwrap()).unwrap()
}

#[test]
fn body_length_and_bytes_are_the_serialization() {
    let mut rng = SplitMix64::new(0xB0D7_0001);
    let mut views = 0;
    for case in 0..400 {
        let t = arb_tree(&mut rng);
        let forest: Vec<Tree> = (0..rng.gen_range(0usize..4))
            .map(|_| arb_handle(&mut rng, &t))
            .collect();
        views += forest.iter().filter(|h| h.root() != t.root()).count();
        let text: String = forest.iter().map(Tree::serialize).collect();
        let body = Body::forest(forest);
        assert_eq!(body.len(), text.len(), "case {case}: {text}");
        assert_eq!(body.is_empty(), text.is_empty());
        let mut out = b"kept".to_vec();
        body.write_into(&mut out);
        assert_eq!(&out[4..], text.as_bytes(), "case {case}");
        assert_eq!(body, Body::from(text), "equal as rendered");
    }
    assert!(views > 100, "{views} subtree views");
}

/// One message of every variant, its seven payloads drawn from `body`.
fn one_of_each(mut body: impl FnMut() -> Body) -> Vec<AxmlMessage> {
    vec![
        AxmlMessage::Request { expr_xml: body() },
        AxmlMessage::Data {
            payload: body(),
            tag: DataTag::ReplicaUpdate,
        },
        AxmlMessage::Invoke {
            service: "svc".into(),
            params: vec![body(), body()],
            forward: vec![addr(2, "inbox", 5), addr(4_000_000_000, "", 0)],
            call_id: u64::MAX,
        },
        AxmlMessage::Response {
            call_id: 7,
            payload: body(),
        },
        AxmlMessage::DeployQuery {
            query_xml: body(),
            as_service: "q1".into(),
        },
        AxmlMessage::InstallDoc {
            name: "doc".into(),
            payload: body(),
        },
    ]
}

/// One message of every variant with forest bodies, and its twin
/// carrying the same payloads as text.
fn forest_and_text_twins(rng: &mut SplitMix64) -> Vec<(AxmlMessage, AxmlMessage)> {
    let t = arb_tree(rng);
    let forests = [1, 3, 2, 0, 2, 1, 1]
        .map(|n| -> Vec<Tree> { (0..n).map(|_| arb_handle(rng, &t)).collect() });
    let mut lazy = forests.iter().map(|f| Body::forest(f.clone()));
    let mut text = forests
        .iter()
        .map(|f| Body::from(f.iter().map(Tree::serialize).collect::<String>()));
    let lazy = one_of_each(|| lazy.next().unwrap());
    lazy.into_iter()
        .zip(one_of_each(|| text.next().unwrap()))
        .collect()
}

#[test]
fn every_variant_charges_frames_and_decodes_as_its_rendered_twin() {
    let mut rng = SplitMix64::new(0xB0D7_0002);
    for _ in 0..40 {
        for (lazy, text) in forest_and_text_twins(&mut rng) {
            assert_eq!(lazy.wire_size(), text.wire_size(), "{text:?}");
            assert_eq!(lazy, text);
            let bytes = lazy.frame_bytes();
            assert_eq!(bytes, text.frame_bytes());
            assert_eq!(bytes.capacity(), bytes.len(), "reserved once, exactly");
            assert_eq!(AxmlMessage::decode(&bytes).as_ref(), Ok(&lazy));
            // Every truncation and any trailing byte is a typed error.
            for cut in 0..bytes.len() {
                assert!(
                    matches!(
                        AxmlMessage::decode(&bytes[..cut]),
                        Err(CoreError::Frame(BytesError::Short { .. }))
                    ),
                    "cut at {cut} of {text:?}"
                );
            }
            let mut long = bytes;
            long.push(0);
            assert_eq!(
                AxmlMessage::decode(&long),
                Err(CoreError::Frame(BytesError::Trailing { extra: 1 }))
            );
        }
    }
    assert!(matches!(
        AxmlMessage::decode(&[9]),
        Err(CoreError::Malformed(m)) if m.contains('9')
    ));
    let mut bad_tag = vec![2];
    bad_tag.put_str("request");
    bad_tag.put_str("");
    assert!(matches!(
        AxmlMessage::decode(&bad_tag),
        Err(CoreError::Malformed(m)) if m.contains("request")
    ));
}

#[test]
fn decode_never_panics_on_mutated_frames() {
    let mut rng = SplitMix64::new(0xB0D7_0003);
    let (mut decoded, mut rejected) = (0, 0);
    for _ in 0..150 {
        for (msg, _) in forest_and_text_twins(&mut rng) {
            let mut bytes = msg.frame_bytes();
            for _ in 0..rng.gen_range(1u32..4) {
                rng.mutate_bytes(&mut bytes);
            }
            match AxmlMessage::decode(&bytes) {
                // What does decode re-encodes to the bytes it read.
                Ok(m) => {
                    assert_eq!(m.frame_bytes(), bytes);
                    decoded += 1;
                }
                Err(_) => rejected += 1,
            }
        }
    }
    assert!(decoded > 20 && rejected > 200, "{decoded} / {rejected}");
}

#[test]
fn sizes_reflect_payloads() {
    assert_eq!(
        AxmlMessage::Request {
            expr_xml: "<doc/>".into()
        }
        .wire_size(),
        6
    );
    assert_eq!(
        AxmlMessage::Data {
            payload: "x".repeat(100).into(),
            tag: DataTag::Send
        }
        .wire_size(),
        100
    );
    let inv = AxmlMessage::Invoke {
        service: "svc".into(),
        params: vec!["<a/>".into(), "<b/>".into()],
        forward: vec![addr(0, "d", 0)],
        call_id: 7,
    };
    assert_eq!(inv.wire_size(), 3 + 8 + 24 + 8);
    assert_eq!(
        AxmlMessage::Response {
            call_id: 1,
            payload: "1234".into()
        }
        .wire_size(),
        12
    );
    assert_eq!(
        AxmlMessage::DeployQuery {
            query_xml: "q".repeat(10).into(),
            as_service: "ss".into()
        }
        .wire_size(),
        12
    );
    assert_eq!(
        AxmlMessage::InstallDoc {
            name: "doc".into(),
            payload: "<t/>".into()
        }
        .wire_size(),
        7
    );
}
