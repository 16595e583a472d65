//! Property tests over *randomly generated expressions* (not just the
//! seed shapes): the wire format round-trips, evaluation is total on
//! well-formed expressions, delegation wrapping preserves values, and the
//! optimizer never changes answers.

use axml_core::cost::CostModel;
use axml_core::prelude::*;
use axml_prng::SplitMix64;
use axml_xml::equiv::forest_equiv;
use axml_xml::tree::Tree;
use proptest::prelude::*;

const N_PEERS: u32 = 3;

fn build_system() -> AxmlSystem {
    let mut builder = AxmlSystem::builder().topology(&Topology::Uniform {
        n: N_PEERS as usize,
        cost: LinkCost::wan(),
    });
    for p in 0..N_PEERS {
        let mut xml = String::from("<catalog>");
        for i in 0..10 {
            xml.push_str(&format!(
                r#"<pkg name="p{p}-{i}"><size>{}</size></pkg>"#,
                i * 1000
            ));
        }
        xml.push_str("</catalog>");
        builder = builder.doc(PeerId(p), "catalog", xml).service(
            PeerId(p),
            "all",
            r#"doc("catalog")//pkg"#,
        );
    }
    builder.build().unwrap()
}

/// A generator of well-formed expressions over the fixed 3-peer system.
/// Depth-bounded; every generated expression is evaluable at any peer.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let peer = (0..N_PEERS).prop_map(PeerId);
    let leaf = prop_oneof![
        peer.clone().prop_map(|p| Expr::Doc {
            name: "catalog".into(),
            at: PeerRef::At(p),
        }),
        (peer, 0usize..5).prop_map(|(p, k)| Expr::Tree {
            tree: Tree::parse(&format!("<lit><v>{k}</v></lit>")).unwrap(),
            at: p,
        }),
    ];
    leaf.prop_recursive(3, 12, 2, move |inner| {
        let peer = (0..N_PEERS).prop_map(PeerId);
        prop_oneof![
            // unary query over any sub-expression
            (inner.clone(), peer.clone(), 0usize..3).prop_map(|(arg, def_at, qi)| {
                let srcs = [
                    "$0//pkg",
                    r#"for $x in $0//pkg where $x/size/text() > 4000 return <big>{$x/@name}</big>"#,
                    "for $x in $0//v return <got>{$x/text()}</got>",
                ];
                Expr::Apply {
                    query: LocatedQuery::new(Query::parse("q", srcs[qi]).unwrap(), def_at),
                    args: vec![arg],
                }
            }),
            // service call with a generated parameter
            (inner.clone(), peer.clone()).prop_map(|(_param, p)| Expr::Sc {
                provider: PeerRef::At(p),
                service: "all".into(),
                params: vec![],
                forward: vec![],
            }),
            // delegation wrapper (rule 14 shape) — built via the same
            // retargeting discipline the rules use
            (inner.clone(), peer).prop_map(|(e, p)| {
                let mut moved = e;
                // returns inside `moved` previously targeted "wherever the
                // caller is"; the generator only builds evaluation-site-
                // independent leaves below EvalAt, so a plain wrap works
                // when we send back to the future evaluation site — which
                // the evaluating property supplies as site 0.
                moved.retarget_returns(PeerId(0), p);
                Expr::EvalAt {
                    peer: p,
                    expr: Box::new(Expr::Send {
                        dest: SendDest::Peer(PeerId(0)),
                        payload: Box::new(moved),
                    }),
                }
            }),
            // sequencing
            proptest::collection::vec(inner, 1..3).prop_map(Expr::Seq),
        ]
    })
}

/// Names and text that the serializer must escape, or that are empty
/// or multi-byte.
const AWKWARD: [&str; 6] = ["plain", "", "a\"b", "<&>", "日本·語", "q 'x' \"y\" & z"];

fn awkward(rng: &mut SplitMix64) -> &'static str {
    rng.choose(&AWKWARD).unwrap()
}

fn arb_query(rng: &mut SplitMix64, depth: u32) -> Query {
    const SRCS: [&str; 3] = [
        "$0//pkg",
        r#"for $x in $0//pkg where $x/@name = "a&b" and $x/size/text() > 4000 return <big>{$x/@name}</big>"#,
        "for $x in $0//v return <got>{$x/text()}</got>",
    ];
    let name = format!("q{}", awkward(rng));
    if depth == 0 || rng.gen_bool(0.6) {
        return Query::parse(name.as_str(), rng.choose(&SRCS).unwrap()).unwrap();
    }
    // every source above is unary, so outer(inner) composes
    let outer = arb_query(rng, depth - 1);
    let inner = arb_query(rng, depth - 1);
    Query::compose(name.as_str(), outer, vec![inner]).unwrap()
}

fn arb_addrs(rng: &mut SplitMix64, at_least: usize) -> Vec<NodeAddr> {
    (0..rng.gen_range(at_least..3usize))
        .map(|_| {
            let node = axml_xml::tree::NodeId::from_index(rng.gen_range(0..9usize)).unwrap();
            NodeAddr::new(PeerId(rng.gen_range(0..N_PEERS)), awkward(rng), node)
        })
        .collect()
}

/// Any expression the constructors admit — not necessarily evaluable.
fn arb_wire_expr(rng: &mut SplitMix64, depth: u32) -> Expr {
    let peer = |rng: &mut SplitMix64| PeerId(rng.gen_range(0..N_PEERS));
    let peer_ref = |rng: &mut SplitMix64| match rng.gen_range(0..3u32) {
        0 => PeerRef::Any,
        _ => PeerRef::At(PeerId(rng.gen_range(0..N_PEERS))),
    };
    let children = |rng: &mut SplitMix64| -> Vec<Expr> {
        (0..rng.gen_range(0..3usize))
            .map(|_| arb_wire_expr(rng, depth.saturating_sub(1)))
            .collect()
    };
    let kind = if depth == 0 {
        rng.gen_range(0..3u32)
    } else {
        rng.gen_range(0..8u32)
    };
    match kind {
        0 => Expr::Doc {
            name: awkward(rng).into(),
            at: peer_ref(rng),
        },
        1 => {
            let mut tree = Tree::new("lit");
            let root = tree.root();
            tree.set_attr(root, "k", awkward(rng)).unwrap();
            tree.add_text_element(root, "v", awkward(rng));
            tree.add_text(root, awkward(rng));
            // a subtree view: the emitter must clip at the view's root
            let whole = rng.gen_bool(0.5);
            Expr::Tree {
                tree: if whole {
                    tree
                } else {
                    tree.subtree(tree.children(root)[0]).unwrap()
                },
                at: peer(rng),
            }
        }
        2 => Expr::Deploy {
            to: peer(rng),
            query: LocatedQuery::new(arb_query(rng, 2), peer(rng)),
            as_service: awkward(rng).into(),
        },
        3 => Expr::Apply {
            query: LocatedQuery::new(arb_query(rng, 2), peer(rng)),
            args: children(rng),
        },
        4 => Expr::Send {
            dest: match rng.gen_range(0..3u32) {
                0 => SendDest::Peer(peer(rng)),
                // at least one: see `a_send_to_no_nodes_is_not_shippable`
                1 => SendDest::Nodes(arb_addrs(rng, 1)),
                _ => SendDest::NewDoc {
                    peer: peer(rng),
                    name: awkward(rng).into(),
                },
            },
            payload: Box::new(arb_wire_expr(rng, depth - 1)),
        },
        5 => Expr::Sc {
            provider: peer_ref(rng),
            service: awkward(rng).into(),
            params: children(rng),
            forward: arb_addrs(rng, 0),
        },
        6 => Expr::EvalAt {
            peer: peer(rng),
            expr: Box::new(arb_wire_expr(rng, depth - 1)),
        },
        _ => Expr::Seq(children(rng)),
    }
}

/// `e` as the peer that parses its text sees it: the same expression,
/// each literal tree re-read from its own serialization (which is all
/// the text holds of it — see the next test for what that drops).
fn as_received(e: &Expr) -> Expr {
    if let Expr::Tree { tree, at } = e {
        return Expr::Tree {
            tree: Tree::parse(&tree.serialize()).unwrap(),
            at: *at,
        };
    }
    let mut out = e.clone();
    for (i, child) in e.children().into_iter().enumerate() {
        out = out.with_child(i, as_received(child));
    }
    out
}

/// What a peer receives is what was meant: the emitted text parses, the
/// parsed tree reads back as the expression that was sent — names,
/// addresses and query definitions byte for byte, literal trees as their
/// own serialization reads — and the emitted count is the text's length.
#[test]
fn shipped_text_reads_back_as_the_same_expression() {
    let mut rng = SplitMix64::new(0xE317_7E12);
    for case in 0..600 {
        let e = arb_wire_expr(&mut rng, 3);
        let text = e.fingerprint();
        assert_eq!(e.wire_size(), text.len(), "case {case}: {e}");
        let xml = Tree::parse(&text).unwrap_or_else(|err| panic!("case {case}: {err}: {text}"));
        let back = Expr::from_xml(&xml, xml.root())
            .unwrap_or_else(|err| panic!("case {case}: {err}: {text}"));
        assert_eq!(
            back.fingerprint(),
            as_received(&e).fingerprint(),
            "case {case}: {text}"
        );
    }
}

/// The one thing the shipped text does not carry: how a literal tree's
/// character data was split into text nodes. The XML parser drops empty
/// and whitespace-only text nodes and reads adjacent ones as one, so a
/// peer rebuilds `<lit> <v>a</v>bc<e></e></lit>` (text nodes " ", "b",
/// "c", "") as `<lit><v>a</v>bc<e/></lit>` (one text node, "bc") — a
/// different fingerprint for what XML calls the same document, bar the
/// dropped blank. Every other part of an expression — names, addresses,
/// query sources — is an attribute or the whole text of its element and
/// survives byte for byte.
#[test]
fn shipped_literal_trees_lose_blank_and_split_text_nodes() {
    let mut tree = Tree::new("lit");
    let root = tree.root();
    tree.add_text(root, " ");
    tree.add_text_element(root, "v", "a");
    tree.add_text(root, "b");
    tree.add_text(root, "c");
    tree.add_text_element(root, "e", "");
    let e = Expr::Tree {
        tree,
        at: PeerId(1),
    };
    let text = e.fingerprint();
    assert_eq!(text, r#"<tree at="1"><lit> <v>a</v>bc<e></e></lit></tree>"#);
    let xml = Tree::parse(&text).unwrap();
    let back = Expr::from_xml(&xml, xml.root()).unwrap();
    assert_eq!(
        back.fingerprint(),
        r#"<tree at="1"><lit><v>a</v>bc<e/></lit></tree>"#
    );
    let Expr::Tree { tree: got, .. } = back else {
        panic!("not a tree: {back}");
    };
    assert_eq!(got.children(got.root()).len(), 3, "<v>, one text node, <e>");
}

/// The constructors admit `send` to an empty node list; the wire form
/// does not — it would be a `<send>` with no destination at all, which
/// `from_xml` refuses rather than guess.
#[test]
fn a_send_to_no_nodes_is_not_shippable() {
    let e = Expr::Send {
        dest: SendDest::Nodes(vec![]),
        payload: Box::new(Expr::Seq(vec![])),
    };
    let xml = Tree::parse(&e.fingerprint()).unwrap();
    let err = Expr::from_xml(&xml, xml.root()).unwrap_err();
    assert!(err.to_string().contains("lacks a destination"), "{err}");
}

/// A peer reference or number has the one text the emitter writes:
/// `any`, `p<digits>`, `<digits>`. Spellings `str::parse` or a lenient
/// prefix strip would also take — `pp3`, a bare `3`, `p+3`, `+3` — are
/// `Malformed`, in a shipped expression and in a document's `<sc>`.
#[test]
fn a_peer_reference_has_one_spelling() {
    let sc = |peer: &str, forw: &str| {
        format!("<sc><peer>{peer}</peer><service>s</service><forw>{forw}</forw></sc>")
    };
    let good = [
        r#"<doc name="d" at="p3"/>"#.to_string(),
        r#"<doc name="d" at="any"/>"#.to_string(),
        r#"<evalat peer="3"><seq/></evalat>"#.to_string(),
        sc("p3", "doc#1@p3"),
        sc("any", "doc#1@p3"),
    ];
    for text in &good {
        let xml = Tree::parse(text).unwrap();
        let e = Expr::from_xml(&xml, xml.root()).unwrap_or_else(|err| panic!("{text}: {err}"));
        assert_eq!(
            &e.fingerprint(),
            text,
            "the accepted text is the emitted one"
        );
    }
    let mut bad: Vec<String> = ["pp3", "3", "p+3", "p", "P3", "p3 ", ""]
        .iter()
        .flat_map(|peer| {
            [
                format!(r#"<doc name="d" at="{peer}"/>"#),
                sc(peer, "doc#1@p3"),
            ]
        })
        .collect();
    for addr in ["doc#1@p+3", "doc#+1@p3", "doc#1@pp3", "doc#1@3"] {
        bad.push(sc("p3", addr));
    }
    bad.push(r#"<evalat peer="+3"><seq/></evalat>"#.into());
    bad.push(r#"<send peer="+3"><payload><seq/></payload></send>"#.into());
    for text in &bad {
        let xml = Tree::parse(text).unwrap();
        let err = Expr::from_xml(&xml, xml.root()).expect_err(text);
        assert!(matches!(err, CoreError::Malformed(_)), "{text}: {err}");
        if text.starts_with("<sc>") {
            let err = ScNode::parse(&xml, xml.root()).expect_err(text);
            assert!(matches!(err, CoreError::Malformed(_)), "{text}: {err}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The XML wire format round-trips every generated expression.
    #[test]
    fn wire_roundtrip(e in arb_expr()) {
        let xml = Tree::parse(&e.fingerprint()).unwrap();
        let back = Expr::from_xml(&xml, xml.root()).unwrap();
        prop_assert_eq!(e.fingerprint(), back.fingerprint());
        prop_assert_eq!(e.wire_size(), back.wire_size());
    }

    /// Evaluation at peer 0 is total (no panics, no spurious errors) and
    /// deterministic.
    #[test]
    fn eval_total_and_deterministic(e in arb_expr()) {
        let mut s1 = build_system();
        let mut s2 = build_system();
        let v1 = s1.eval(PeerId(0), &e).unwrap();
        let v2 = s2.eval(PeerId(0), &e).unwrap();
        prop_assert!(forest_equiv(&v1, &v2));
        prop_assert_eq!(s1.stats().total_bytes(), s2.stats().total_bytes());
    }

    /// The optimizer preserves the value of arbitrary expressions and
    /// never estimates its output worse than the input.
    #[test]
    fn optimizer_value_preserving(e in arb_expr()) {
        let sys = build_system();
        let model = CostModel::from_system(&sys);
        let plan = Optimizer::standard().optimize(&model, PeerId(0), &e);
        prop_assert!(plan.cost.scalar() <= model.scalar_cost(PeerId(0), &e) + 1e-9);
        let mut s1 = build_system();
        let mut s2 = build_system();
        let v1 = s1.eval(PeerId(0), &e).unwrap();
        let v2 = s2.eval(PeerId(0), &plan.expr).unwrap();
        prop_assert!(
            forest_equiv(&v1, &v2),
            "trace {:?}\n naive: {}\n opt:   {}",
            plan.trace, e, plan.expr
        );
    }

    /// Delegating any expression to any peer and shipping the value back
    /// (rule (14)) preserves it.
    #[test]
    fn rule_14_holds_for_random_expressions(e in arb_expr(), target in 0..N_PEERS) {
        let mut s1 = build_system();
        let v1 = s1.eval(PeerId(0), &e).unwrap();
        let mut moved = e.clone();
        moved.retarget_returns(PeerId(0), PeerId(target));
        let wrapped = Expr::EvalAt {
            peer: PeerId(target),
            expr: Box::new(Expr::Send {
                dest: SendDest::Peer(PeerId(0)),
                payload: Box::new(moved),
            }),
        };
        let mut s2 = build_system();
        let v2 = s2.eval(PeerId(0), &wrapped).unwrap();
        prop_assert!(forest_equiv(&v1, &v2), "e = {e}");
    }
}
