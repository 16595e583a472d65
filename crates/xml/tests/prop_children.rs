//! A node keeps up to 3 child ids inline and moves its list to the heap
//! beyond that. This holds the list to a plain `Vec` model: random
//! pushes, detaches, clones and writes through either side of a clone
//! (copy-on-write), on lists on both sides of the spill boundary, must
//! leave every node's `children()` equal to the model's. The tree must
//! also serialize, compare (`tree_equiv`, `==`) and digest like a tree
//! rebuilt from the model.

use axml_prng::SplitMix64;
use axml_xml::equiv::{canonical_digest, tree_equiv};
use axml_xml::tree::{NodeId, Tree};

#[derive(Clone)]
enum Kind {
    Element(&'static str),
    Text(String),
}

/// The tree as plain vectors: one entry per arena slot, detached ones
/// included, so slot `i` of the model is `NodeId` `i` of the tree.
#[derive(Clone)]
struct Model {
    nodes: Vec<(Kind, Option<usize>, Vec<usize>)>,
}

impl Model {
    fn new() -> Self {
        Model {
            nodes: vec![(Kind::Element("root"), None, Vec::new())],
        }
    }

    fn push(&mut self, parent: usize, kind: Kind) -> usize {
        self.nodes.push((kind, Some(parent), Vec::new()));
        let id = self.nodes.len() - 1;
        self.nodes[parent].2.push(id);
        id
    }

    fn detach(&mut self, id: usize) {
        if let Some(p) = self.nodes[id].1.take() {
            self.nodes[p].2.retain(|&c| c != id);
        }
    }

    /// The slots reachable from the root, in preorder.
    fn live(&self) -> Vec<usize> {
        let (mut out, mut todo) = (Vec::new(), vec![0]);
        while let Some(n) = todo.pop() {
            out.push(n);
            todo.extend(self.nodes[n].2.iter().rev());
        }
        out
    }

    fn rebuild(&self) -> Tree {
        fn under(m: &Model, t: &mut Tree, at: NodeId, n: usize) {
            for &c in &m.nodes[n].2 {
                match &m.nodes[c].0 {
                    Kind::Element(label) => {
                        let el = t.add_element(at, *label);
                        under(m, t, el, c);
                    }
                    Kind::Text(s) => drop(t.add_text(at, s.as_str())),
                }
            }
        }
        let mut t = Tree::new("root");
        let root = t.root();
        under(self, &mut t, root, 0);
        t
    }
}

/// Every node the model has agrees with the tree on its children.
fn check(t: &Tree, m: &Model, what: &str) {
    for (i, (_, _, children)) in m.nodes.iter().enumerate() {
        let want: Vec<NodeId> = children
            .iter()
            .map(|&c| NodeId::from_index(c).unwrap())
            .collect();
        assert_eq!(
            t.children(NodeId::from_index(i).unwrap()),
            &want[..],
            "{what}: node {i}"
        );
    }
    let rebuilt = m.rebuild();
    assert_eq!(t.serialize(), rebuilt.serialize(), "{what}");
    assert!(tree_equiv(t, t.root(), &rebuilt, rebuilt.root()), "{what}");
    assert_eq!(
        canonical_digest(t, t.root()),
        canonical_digest(&rebuilt, rebuilt.root()),
        "{what}"
    );
    assert_eq!(t, &rebuilt, "{what}");
}

#[test]
fn child_lists_agree_with_a_vec_model() {
    let (mut spilled, mut inline_detaches, mut spilled_detaches, mut cows) = (0, 0, 0, 0);
    for seed in 0..300u64 {
        let mut rng = SplitMix64::new(seed);
        // versions of one tree: a clone shares its arena until written
        let mut versions = vec![(Tree::new("root"), Model::new())];
        for step in 0..60 {
            let v = rng.gen_range(0..versions.len());
            let what = format!("seed {seed} step {step} version {v}");
            let shared = (0..versions.len())
                .any(|i| i != v && versions[i].0.shares_arena_with(&versions[v].0));
            let op = rng.gen_range(0u32..10);
            // clone: the copy is written later, or the original is
            if op == 8 && versions.len() < 4 {
                let copy = (versions[v].0.clone(), versions[v].1.clone());
                versions.push(copy);
                continue;
            }
            let (t, m) = &mut versions[v];
            let live = m.live();
            let wrote = match op {
                // push, mostly under a few elements so lists grow past 3
                0..=5 => {
                    let elements: Vec<usize> = live
                        .iter()
                        .copied()
                        .filter(|&n| matches!(m.nodes[n].0, Kind::Element(_)))
                        .collect();
                    let parent = elements[rng.gen_range(0..elements.len().min(3))];
                    let at = NodeId::from_index(parent).unwrap();
                    let id = if rng.gen_bool(0.7) {
                        let label = *rng.choose(&["a", "b", "c"]).unwrap();
                        m.push(parent, Kind::Element(label));
                        t.add_element(at, label)
                    } else {
                        let text = format!("t{}", rng.gen_range(0u32..5));
                        m.push(parent, Kind::Text(text.clone()));
                        t.add_text(at, text)
                    };
                    assert_eq!(id.index(), m.nodes.len() - 1, "{what}");
                    if m.nodes[parent].2.len() == 4 {
                        spilled += 1;
                    }
                    true
                }
                // detach a live node other than the root
                6 | 7 if live.len() > 1 => {
                    let n = live[rng.gen_range(1..live.len())];
                    let parent = m.nodes[n].1.expect("live and not the root");
                    if m.nodes[parent].2.len() > 3 {
                        spilled_detaches += 1;
                    } else {
                        inline_detaches += 1;
                    }
                    m.detach(n);
                    t.detach(NodeId::from_index(n).unwrap()).unwrap();
                    true
                }
                _ => false,
            };
            if wrote && shared {
                // the write copied the arena; the other versions kept theirs
                assert!(
                    (0..versions.len())
                        .all(|i| i == v || !versions[i].0.shares_arena_with(&versions[v].0)),
                    "{what}"
                );
                cows += 1;
            }
            check(&versions[v].0, &versions[v].1, &what);
        }
        for (i, (t, m)) in versions.iter().enumerate() {
            check(t, m, &format!("seed {seed} version {i} at the end"));
        }
    }
    // the runs crossed the boundary both ways, through both sides of a clone
    assert!(spilled > 300, "{spilled} lists spilled");
    assert!(
        inline_detaches > 300 && spilled_detaches > 300,
        "{inline_detaches} inline detaches, {spilled_detaches} spilled"
    );
    assert!(cows > 100, "{cows} writes copied a shared arena");
}
