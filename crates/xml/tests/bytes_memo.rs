//! The bytes memo is a render: whatever sequence of mutations a tree went
//! through, `serialize_into` gives exactly the bytes a fresh walk
//! (`serialize_node`) gives — for the tree, for a copy-on-write copy and
//! its original, for subtree views, and for threads rendering one handle
//! at once.

use axml_prng::SplitMix64;
use axml_xml::tree::{NodeId, Tree};
use std::sync::Barrier;

const LABELS: [&str; 4] = ["a", "pkg", "v", "x.y"];
const TEXTS: [&str; 5] = ["t", "a&b", "<x>", "\"q\"", "é"];

/// Renders `t` through `serialize_into`, into a buffer that already holds
/// a head, the way a frame is built.
fn render(t: &Tree) -> Vec<u8> {
    let mut out = b"head".to_vec();
    t.serialize_into(&mut out);
    out.split_off(4)
}

/// The nodes reachable from the root, in preorder.
fn live(t: &Tree) -> Vec<NodeId> {
    t.descendants_with_self(t.root()).collect()
}

fn pick<T: Copy>(rng: &mut SplitMix64, xs: &[T]) -> T {
    *rng.choose(xs).expect("never empty")
}

/// One of the public mutators, on random live nodes.
fn mutate(t: &mut Tree, rng: &mut SplitMix64, donor: &Tree) {
    let elements: Vec<NodeId> = live(t)
        .into_iter()
        .filter(|&n| t.node(n).is_element())
        .collect();
    let at = pick(rng, &elements);
    let (label, text) = (pick(rng, &LABELS), pick(rng, &TEXTS));
    match rng.gen_range(0u32..7) {
        0 => {
            t.add_element(at, label);
        }
        1 => {
            t.add_text(at, text);
        }
        2 => {
            t.add_text_element(at, label, text);
        }
        3 => t.set_attr(at, label, text).unwrap(),
        4 => match live(t).get(1..).filter(|below| !below.is_empty()) {
            Some(below) => t.detach(pick(rng, below)).unwrap(),
            None => t.set_attr(at, "k", text).unwrap(),
        },
        5 => {
            t.graft(at, donor, pick(rng, &live(donor))).unwrap();
        }
        _ => {
            // from a snapshot of itself: the graft copies out of a shared arena
            let snapshot = t.clone();
            t.graft(at, &snapshot, pick(rng, &live(&snapshot))).unwrap();
        }
    }
}

/// One to three renders, each the bytes of a fresh walk.
fn renders_fresh(t: &Tree, rng: &mut SplitMix64, what: &str) {
    let want = t.serialize_node(t.root());
    for i in 0..rng.gen_range(1u32..=3) {
        assert!(render(t) == want.as_bytes(), "{what}: render {i} of {want}");
    }
}

#[test]
fn every_render_is_a_fresh_walk() {
    let donor = Tree::parse(r#"<d k="&quot;"><e>1 &amp; 2</e><f/></d>"#).unwrap();
    for seed in 0..200 {
        let mut rng = SplitMix64::new(seed);
        let mut t = Tree::new(pick(&mut rng, &LABELS));
        for step in 0..rng.gen_range(1u32..30) {
            let what = format!("seed {seed} step {step}");
            mutate(&mut t, &mut rng, &donor);
            renders_fresh(&t, &mut rng, &what);

            // a copy-on-write copy, mutated: each renders its own bytes
            let before = t.serialize();
            let mut copy = t.clone();
            renders_fresh(&copy, &mut rng, &what);
            mutate(&mut copy, &mut rng, &donor);
            renders_fresh(&copy, &mut rng, &format!("{what}: copy"));
            assert!(render(&t) == before.as_bytes(), "{what}: original");

            // a view renders its own subtree, never the arena's bytes
            let node = pick(&mut rng, &live(&t));
            let view = t.subtree(node).unwrap();
            let want = t.serialize_node(node);
            for _ in 0..3 {
                assert!(render(&view) == want.as_bytes(), "{what}: view of {node}");
            }
        }

        // two threads rendering one handle of a just-changed arena race
        // for its first, second and later renders
        mutate(&mut t, &mut rng, &donor);
        let want = t.serialize().into_bytes();
        let (shared, start) = (&t, Barrier::new(2));
        std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..3).map(|_| render(shared)).collect::<Vec<_>>()
                    })
                })
                .collect();
            for thread in threads {
                for got in thread.join().unwrap() {
                    assert!(got == want, "seed {seed}: a racing render");
                }
            }
        });
    }
}
