//! Property tests over *randomly generated expressions* (not just the
//! seed shapes): the wire format round-trips, evaluation is total on
//! well-formed expressions, delegation wrapping preserves values, the
//! optimizer never changes answers — and what the search does per
//! candidate (price it, key it, splice it into its parent) agrees with
//! the slow way of doing the same, kept here as the reference; and a plan
//! the system reuses is the plan a cold search would choose.

use axml_core::cost::CostModel;
use axml_core::prelude::*;
use axml_core::rules::{standard_rules, R13ShareTransfer, RewriteRule};
use axml_net::link::saturating_bytes_f64;
use axml_prng::SplitMix64;
use axml_xml::equiv::forest_equiv;
use axml_xml::tree::Tree;
use proptest::prelude::*;

const N_PEERS: u32 = 3;
/// The peers of [`build_system`].
const PEERS: [PeerId; 3] = [PeerId(0), PeerId(1), PeerId(2)];

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

fn arb_query(rng: &mut SplitMix64) -> Query {
    const SRCS: [&str; 3] = [
        "$0//pkg",
        r#"for $x in $0//pkg where $x/@name = "a&b" and $x/size/text() > 4000 return <big>{$x/@name}</big>"#,
        "for $x in $0//v return <got>{$x/text()}</got>",
    ];
    let name = format!("q{}", awkward(rng));
    Query::parse(name.as_str(), rng.choose(&SRCS).unwrap()).unwrap()
}

fn arb_addrs(rng: &mut SplitMix64, at_least: usize, peers: &[PeerId]) -> Vec<NodeAddr> {
    (0..rng.gen_range(at_least..3usize))
        .map(|_| {
            let node = axml_xml::tree::NodeId::from_index(rng.gen_range(0..9usize)).unwrap();
            NodeAddr::new(*rng.choose(peers).unwrap(), awkward(rng), node)
        })
        .collect()
}

/// Any expression the constructors admit over `peers` — not necessarily
/// evaluable.
fn arb_wire_expr(rng: &mut SplitMix64, depth: u32, peers: &[PeerId]) -> Expr {
    let peer = |rng: &mut SplitMix64| *rng.choose(peers).unwrap();
    let peer_ref = |rng: &mut SplitMix64| match rng.gen_range(0..3u32) {
        0 => PeerRef::Any,
        _ => PeerRef::At(*rng.choose(peers).unwrap()),
    };
    let children = |rng: &mut SplitMix64| -> Vec<Expr> {
        (0..rng.gen_range(0..3usize))
            .map(|_| arb_wire_expr(rng, depth.saturating_sub(1), peers))
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
            query: LocatedQuery::new(arb_query(rng), peer(rng)),
            as_service: awkward(rng).into(),
        },
        3 => Expr::Apply {
            query: LocatedQuery::new(arb_query(rng), peer(rng)),
            args: children(rng),
        },
        4 => Expr::Send {
            dest: match rng.gen_range(0..3u32) {
                0 => SendDest::Peer(peer(rng)),
                // at least one: see `a_send_to_no_nodes_is_not_shippable`
                1 => SendDest::Nodes(arb_addrs(rng, 1, peers)),
                _ => SendDest::NewDoc {
                    peer: peer(rng),
                    name: awkward(rng).into(),
                },
            },
            payload: Box::new(arb_wire_expr(rng, depth - 1, peers)),
        },
        5 => Expr::Sc {
            provider: peer_ref(rng),
            service: awkward(rng).into(),
            params: children(rng),
            forward: arb_addrs(rng, 0, peers),
        },
        6 => {
            let at = peer(rng);
            let mut body = arb_wire_expr(rng, depth - 1, peers);
            // Half the time a delegation right inside a delegation: to
            // the same peer (what it carries stays where the outer one
            // put it) or to another (it moves again).
            if rng.gen_bool(0.5) {
                body = Expr::EvalAt {
                    peer: if rng.gen_bool(0.5) { at } else { peer(rng) },
                    expr: Box::new(body),
                };
            }
            Expr::EvalAt {
                peer: at,
                expr: Box::new(body),
            }
        }
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
    for (i, child) in e.children().iter().enumerate() {
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
        let e = arb_wire_expr(&mut rng, 3, &PEERS);
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

// ---------------------------------------------------------------------
// What the optimizer does per candidate, against the slow way.
// ---------------------------------------------------------------------

/// Three peers of a twelve-peer system, one of them with two digits: a
/// peer number's length is part of a shipped plan's size.
const WIDE: [PeerId; 3] = [PeerId(0), PeerId(3), PeerId(11)];

/// Documents, a generic class and a visible service under the names the
/// generator draws, on unequal links.
fn estimate_system() -> AxmlSystem {
    let [a, b, c] = WIDE;
    let doc = |n: usize| {
        let items: String = (0..n).map(|i| format!("<v>{i}</v>")).collect();
        format!("<lit>{items}</lit>")
    };
    AxmlSystem::builder()
        .topology(&Topology::Uniform {
            n: 12,
            cost: LinkCost::wan(),
        })
        .link(a, b, LinkCost::slow())
        .link(b, c, LinkCost::lan())
        .doc(a, "plain", doc(3))
        .doc(b, "plain", doc(40))
        .doc(c, "<&>", doc(7))
        .replica(b, "日本·語", "plain-b", doc(5))
        .replica(c, "日本·語", "plain-c", doc(9))
        .service(b, "plain", "for $x in $0//v return <got>{$x/text()}</got>")
        .service(c, "a\"b", r#"doc("<&>")//v"#)
        .build()
        .unwrap()
}

/// One message of `payload` bytes from `from` to `to`, as the model
/// charges it (nothing when it stays on one peer).
fn ship(model: &CostModel, cost: &mut Cost, from: PeerId, to: PeerId, payload: f64) {
    if from == to {
        return;
    }
    let link = model.link(from, to);
    let n = saturating_bytes_f64(payload);
    cost.bytes += link.charged_bytes(n) as f64;
    cost.messages += 1.0;
    cost.time_ms += link.transfer_ms(n);
}

/// The value `probe` produces at `site`, as the model estimates it. A
/// value is a function of the value, not of how the plan spells it or
/// where its definitions were shipped, so the model is asked for the
/// results of queries and service calls over any arguments; the walk
/// below prices only where they travel.
fn value_of(model: &CostModel, site: PeerId, probe: Expr) -> f64 {
    model.estimate(site, &probe).value_bytes
}

/// `CostModel::estimate`'s walk as it was when it made the copy the
/// engine makes: at every `EvalAt` that crosses to another peer the body
/// is cloned and the clone's definitions relocated, and the walk goes on
/// over the clone. Charges in the same order, so the sums can be
/// compared bit for bit.
fn relocating_est(model: &CostModel, site: PeerId, expr: &Expr, cost: &mut Cost) -> f64 {
    match expr {
        Expr::Tree { tree, at } => {
            let size = tree.serialized_size() as f64;
            if *at != site {
                ship(model, cost, site, *at, 48.0);
                ship(model, cost, *at, site, size);
            }
            size
        }
        Expr::Doc { name, at } => {
            let Some((home, concrete)) = model.resolve_doc(site, name, at) else {
                return 0.0;
            };
            let size = model.doc_size(home, &concrete).unwrap_or(1024.0);
            if home != site {
                ship(model, cost, site, home, expr.wire_size() as f64);
                ship(model, cost, home, site, size);
            }
            size
        }
        Expr::Apply { query, args } => {
            let def = query.query.wire_size() as f64;
            ship(model, cost, query.def_at, site, def);
            for a in args {
                relocating_est(model, site, a, cost);
            }
            let probe = Expr::Apply {
                query: LocatedQuery::new(query.query.clone(), site),
                args: args.clone(),
            };
            value_of(model, site, probe)
        }
        Expr::Send { dest, payload } => {
            let v = relocating_est(model, site, payload, cost);
            match dest {
                SendDest::Peer(q) => ship(model, cost, site, *q, v),
                SendDest::Nodes(addrs) => {
                    for a in addrs {
                        ship(model, cost, site, a.peer, v);
                    }
                }
                SendDest::NewDoc { peer, .. } => ship(model, cost, site, *peer, v),
            }
            0.0
        }
        Expr::Sc {
            provider,
            service,
            params,
            forward,
        } => {
            let PeerRef::At(prov) = *provider else {
                // `estimate_system` registers no generic service
                assert!(model.service_replicas(service).is_empty());
                return 0.0;
            };
            let mut total = 0.0;
            for p in params {
                total += relocating_est(model, site, p, cost);
            }
            ship(model, cost, site, prov, total + 32.0);
            let probe = Expr::Sc {
                provider: *provider,
                service: service.clone(),
                params: params.clone(),
                forward: vec![],
            };
            let result = value_of(model, site, probe);
            if forward.is_empty() {
                ship(model, cost, prov, site, result);
                result
            } else {
                for a in forward {
                    ship(model, cost, prov, a.peer, result);
                }
                0.0
            }
        }
        Expr::EvalAt { peer, expr: inner } => {
            let mut shipped = (**inner).clone();
            if *peer != site {
                ship(model, cost, site, *peer, shipped.wire_size() as f64);
                shipped.relocate_query_defs(*peer);
            }
            match &shipped {
                Expr::Send {
                    dest: SendDest::Peer(back),
                    payload,
                } if *back == site => {
                    let v = relocating_est(model, *peer, payload, cost);
                    ship(model, cost, *peer, site, v);
                    v
                }
                other => {
                    relocating_est(model, *peer, other, cost);
                    0.0
                }
            }
        }
        Expr::Deploy { to, query, .. } => {
            let def = query.query.wire_size() as f64;
            ship(model, cost, query.def_at, *to, def);
            0.0
        }
        Expr::Seq(es) => {
            let mut last = 0.0;
            for e in es {
                last = relocating_est(model, site, e, cost);
            }
            last
        }
    }
}

/// How many `EvalAt` nodes of `e` (evaluated at `site`) cross to another
/// peer under an enclosing crossing, and how many stay where an
/// enclosing crossing put them: `(moved again, inherited)`.
fn nested_delegations(e: &Expr, site: PeerId, shipped: bool) -> (usize, usize) {
    let (here, site, shipped) = match e {
        Expr::EvalAt { peer, .. } if *peer != site => ((shipped as usize, 0), *peer, true),
        Expr::EvalAt { peer, .. } => ((0, shipped as usize), *peer, shipped),
        _ => ((0, 0), site, shipped),
    };
    e.children().iter().fold(here, |(m, i), c| {
        let (cm, ci) = nested_delegations(c, site, shipped);
        (m + cm, i + ci)
    })
}

/// The cost walk hands the site of shipped definitions down instead of
/// relocating a copy: same value, same cost, to the bit.
#[test]
fn estimate_equals_the_relocating_walk() {
    let sys = estimate_system();
    let model = CostModel::from_system(&sys);
    let mut rng = SplitMix64::new(0xC057_E571);
    let (mut moved_again, mut inherited) = (0, 0);
    for case in 0..1500 {
        let mut e = arb_wire_expr(&mut rng, 4, &WIDE);
        if case % 2 == 1 {
            // every other case under a delegation of its own
            e = Expr::EvalAt {
                peer: *rng.choose(&WIDE).unwrap(),
                expr: Box::new(e),
            };
        }
        let site = *rng.choose(&WIDE).unwrap();
        let (m, i) = nested_delegations(&e, site, false);
        moved_again += m;
        inherited += i;
        let got = model.estimate(site, &e);
        let mut want = Cost::zero();
        let want_value = relocating_est(&model, site, &e, &mut want);
        let bits = |c: &Cost, v: f64| [c.bytes, c.messages, c.time_ms, v].map(f64::to_bits);
        assert_eq!(
            bits(&got.cost, got.value_bytes),
            bits(&want, want_value),
            "case {case} at {site}: {} vs {want} for {e}",
            got.cost
        );
    }
    assert!(
        moved_again > 100 && inherited > 100,
        "nested delegations that move again: {moved_again}, that inherit: {inherited}"
    );
}

/// Do `a` and `b` have the same memo key? Asked of the key's other
/// reader: rule (13) shares a transfer between two remote arguments
/// exactly when their keys are equal.
fn same_key(model: &CostModel, a: &Expr, b: &Expr) -> bool {
    let remote = |e: &Expr| Expr::EvalAt {
        peer: PeerId(1),
        expr: Box::new(e.clone()),
    };
    let pair = Query::parse("pair", "for $x in $0 for $y in $1 return {$x}").unwrap();
    let both = Expr::Apply {
        query: LocatedQuery::new(pair, PeerId(0)),
        args: vec![remote(a), remote(b)],
    };
    !R13ShareTransfer
        .apply_at(PeerId(0), &both, model)
        .is_empty()
}

/// The memo key stands for the text: equal for two expressions exactly
/// when their fingerprints are — though it never reads a query's text,
/// and reads the rest in pieces cut wherever the emitter cuts them.
#[test]
fn memo_keys_are_equal_exactly_when_the_texts_are() {
    let sys = build_system();
    let model = CostModel::from_system(&sys);
    let mut rng = SplitMix64::new(0x4B45_5953);
    let mut exprs: Vec<Expr> = (0..120)
        .map(|_| arb_wire_expr(&mut rng, 3, &PEERS))
        .collect();
    // The same texts again, from other values: every literal tree and
    // every query parsed anew, by two routes.
    for i in 0..40 {
        let received = as_received(&exprs[i]);
        let xml = Tree::parse(&received.fingerprint()).unwrap();
        exprs.push(Expr::from_xml(&xml, xml.root()).unwrap());
        exprs.push(received);
    }
    // One text cut two ways (see `shipped_literal_trees_lose_…` above).
    let mut split = Tree::new("lit");
    let root = split.root();
    split.add_text(root, "b");
    split.add_text(root, "c");
    for tree in [split, Tree::parse("<lit>bc</lit>").unwrap()] {
        exprs.push(Expr::Tree {
            tree,
            at: PeerId(1),
        });
    }
    // One source parsed twice, and its one-character variants.
    for (name, src) in [
        ("q", "$0//pkg"),
        ("q", "$0//pkg"),
        ("q", "$0//pkh"),
        ("r", "$0//pkg"),
    ] {
        exprs.push(Expr::Apply {
            query: LocatedQuery::new(Query::parse(name, src).unwrap(), PeerId(2)),
            args: vec![],
        });
    }
    let texts: Vec<String> = exprs.iter().map(Expr::fingerprint).collect();
    let mut equal_pairs = 0;
    for i in 0..exprs.len() {
        for j in i..exprs.len() {
            let same_text = texts[i] == texts[j];
            equal_pairs += (same_text && i != j) as usize;
            assert_eq!(
                same_key(&model, &exprs[i], &exprs[j]),
                same_text,
                "{} vs {}",
                texts[i],
                texts[j]
            );
        }
    }
    assert!(equal_pairs > 40, "{equal_pairs} pairs of equal texts");
}

/// `with_child` builds the parent around the new child; the result is
/// what cloning the parent and overwriting the child gives, for every
/// constructor that has children and every position.
#[test]
fn with_child_equals_clone_then_assign() {
    fn assigned(e: &Expr, index: usize, child: Expr) -> Expr {
        let mut out = e.clone();
        match &mut out {
            Expr::Apply { args, .. } => args[index] = child,
            Expr::Sc { params, .. } => params[index] = child,
            Expr::Seq(es) => es[index] = child,
            Expr::Send { payload, .. } => **payload = child,
            Expr::EvalAt { expr, .. } => **expr = child,
            Expr::Tree { .. } | Expr::Doc { .. } | Expr::Deploy { .. } => unreachable!(),
        }
        out
    }
    let mut rng = SplitMix64::new(0x5B11_CE00);
    let mut spliced = [0usize; 5];
    for _ in 0..600 {
        let e = arb_wire_expr(&mut rng, 3, &PEERS);
        let kind = match &e {
            Expr::Apply { .. } => 0,
            Expr::Sc { .. } => 1,
            Expr::Seq(_) => 2,
            Expr::Send { .. } => 3,
            Expr::EvalAt { .. } => 4,
            _ => continue,
        };
        for index in 0..e.children().len() {
            let child = arb_wire_expr(&mut rng, 1, &PEERS);
            let got = e.with_child(index, child.clone());
            assert_eq!(
                got.fingerprint(),
                assigned(&e, index, child).fingerprint(),
                "child {index} of {e}"
            );
            assert_eq!(got.children().len(), e.children().len());
            spliced[kind] += 1;
        }
    }
    assert!(spliced.iter().all(|&n| n > 20), "{spliced:?}");
}

// ---------------------------------------------------------------------
// A reused plan is the plan a cold search would choose.
// ---------------------------------------------------------------------

const SELECT: &str =
    r#"for $p in $0//pkg where $p/size/text() > 4000 return <big>{$p/@name}</big>"#;
/// What `scan@p1` may be (re)defined as. It reads its parameter only, so
/// a search through it reads no statistics of p1's: redefining it moves
/// p1's stamp, but only the service itself, a fact, can tell the search.
const SCANS: [&str; 3] = [
    "for $p in $0//pkg return {$p}",
    "for $p in $0//pkg where $p/size/text() > 2000 return {$p}",
    "$0//pkg/@name",
];

/// A catalog of `n` packages.
fn cat(n: usize) -> String {
    let items: String = (0..n)
        .map(|i| format!(r#"<pkg name="c{i}"><size>{}</size></pkg>"#, i * 700))
        .collect();
    format!("<cat>{items}</cat>")
}

/// Four peers on unequal links: a catalog at p1 and at p2, both members
/// of `cat-any`, and a visible `scan` service at p1.
fn reuse_system() -> AxmlSystem {
    AxmlSystem::builder()
        .topology(&Topology::Uniform {
            n: 4,
            cost: LinkCost::wan(),
        })
        .link(PeerId(0), PeerId(2), LinkCost::lan())
        .link(PeerId(1), PeerId(2), LinkCost::lan())
        .link(PeerId(0), PeerId(3), LinkCost::slow())
        .replica(PeerId(1), "cat-any", "cat", cat(12))
        .replica(PeerId(2), "cat-any", "cat", cat(8))
        .service(PeerId(1), "scan", SCANS[0])
        .pick_policy(PickPolicy::First)
        .build()
        .unwrap()
}

/// The naive plans searched, all at p0.
fn reuse_shapes() -> Vec<Expr> {
    let q = |name: &str, src: &str| Query::parse(name, src).unwrap();
    let doc = |name: &str, at| Expr::Doc {
        name: name.into(),
        at,
    };
    let apply = |query, args| Expr::Apply {
        query: LocatedQuery::new(query, PeerId(0)),
        args,
    };
    let cat1 = || doc("cat", PeerRef::At(PeerId(1)));
    vec![
        apply(q("select", SELECT), vec![cat1()]),
        apply(q("select", SELECT), vec![doc("cat-any", PeerRef::Any)]),
        apply(
            q("fmt", "for $t in $0 return <w>{$t/@name}</w>"),
            vec![Expr::Sc {
                provider: PeerRef::At(PeerId(1)),
                service: "scan".into(),
                params: vec![Expr::Tree {
                    tree: Tree::parse(&cat(3)).unwrap(),
                    at: PeerId(0),
                }],
                forward: vec![],
            }],
        ),
        apply(
            q(
                "pair",
                "for $x in $0//pkg for $y in $1//pkg where $x/@name = $y/@name return <m>{$x/@name}</m>",
            ),
            vec![cat1(), cat1()],
        ),
        Expr::EvalAt {
            peer: PeerId(2),
            expr: Box::new(Expr::Send {
                dest: SendDest::Peer(PeerId(0)),
                payload: Box::new(doc("cat", PeerRef::At(PeerId(2)))),
            }),
        },
    ]
}

/// The optimizer configurations searched with: each is a key of its own.
/// Without rule (9) a generic document stays generic, so the plan turns
/// on the pick policy.
fn reuse_config(i: usize) -> Optimizer {
    let mut opt = match i {
        4 => Optimizer::with_rules(
            standard_rules()
                .into_iter()
                .filter(|r| !["R9-generic", "R16-push-over-sc"].contains(&r.name()))
                .collect(),
        ),
        _ => Optimizer::standard(),
    };
    match i {
        1 => opt.beam_width = 2,
        2 => opt.max_explored = 40,
        3 => opt.stale_rounds = 0,
        _ => {}
    }
    opt
}

/// One change to the system between searches.
#[derive(Debug)]
enum Mutation {
    /// `install_doc` (an existing name is refused, which is a no-op).
    Install {
        at: PeerId,
        name: &'static str,
        items: u32,
    },
    /// `send` of one item to the root of a hosted document.
    Graft {
        at: PeerId,
        doc: &'static str,
        size: u32,
    },
    /// `feed` of one item.
    Feed {
        at: PeerId,
        doc: &'static str,
        size: u32,
    },
    SetLink {
        a: PeerId,
        b: PeerId,
        cost: LinkCost,
    },
    FailLink {
        a: PeerId,
        b: PeerId,
    },
    RestoreLink {
        a: PeerId,
        b: PeerId,
    },
    /// A fault plan outage over `a`–`b` from now on, and time moving on.
    Outage {
        a: PeerId,
        b: PeerId,
        ms: f64,
    },
    Redefine {
        scan: usize,
    },
    AddReplica {
        at: PeerId,
        name: &'static str,
    },
    Pick(PickPolicy),
}

fn item(size: u32) -> Tree {
    Tree::parse(&format!(r#"<pkg name="n{size}"><size>{size}</size></pkg>"#)).unwrap()
}

impl Mutation {
    fn draw(rng: &mut SplitMix64) -> Self {
        let peer = |rng: &mut SplitMix64| PeerId(rng.gen_range(0..4u32));
        let pair = |rng: &mut SplitMix64| {
            let a = rng.gen_range(0..4u32);
            (PeerId(a), PeerId((a + 1 + rng.gen_range(0..3u32)) % 4))
        };
        let docs = ["cat", "extra", "·tmp0", "·tmp1"];
        match rng.gen_range(0..10u32) {
            0 => Mutation::Install {
                at: peer(rng),
                name: rng.choose(&docs).unwrap(),
                items: rng.gen_range(1..20u32),
            },
            1 => Mutation::Graft {
                at: peer(rng),
                doc: rng.choose(&docs).unwrap(),
                size: rng.gen_range(0..9000u32),
            },
            2 => Mutation::Feed {
                at: PeerId(rng.gen_range(1..3u32)),
                doc: "cat",
                size: rng.gen_range(0..9000u32),
            },
            3 => {
                let (a, b) = pair(rng);
                let cost = *rng
                    .choose(&[LinkCost::lan(), LinkCost::wan(), LinkCost::slow()])
                    .unwrap();
                Mutation::SetLink { a, b, cost }
            }
            4 => {
                let (a, b) = pair(rng);
                Mutation::FailLink { a, b }
            }
            5 => {
                let (a, b) = pair(rng);
                Mutation::RestoreLink { a, b }
            }
            6 => {
                let (a, b) = pair(rng);
                let ms = rng.gen_range(1..100u32) as f64;
                Mutation::Outage { a, b, ms }
            }
            7 => Mutation::Redefine {
                scan: rng.gen_range(0..SCANS.len() as u32) as usize,
            },
            8 => Mutation::AddReplica {
                at: peer(rng),
                name: rng.choose(&["cat", "extra"]).unwrap(),
            },
            // the model prices all but `Closest` at the first member
            _ => Mutation::Pick(
                *rng.choose(&[
                    PickPolicy::First,
                    PickPolicy::Closest,
                    PickPolicy::Closest,
                    PickPolicy::RoundRobin,
                    PickPolicy::Random(7),
                ])
                .unwrap(),
            ),
        }
    }

    /// Apply to `sys`. What the system refuses (a duplicate name, a send
    /// over a dead link) is refused the same way on every replay.
    fn apply(&self, sys: &mut AxmlSystem) {
        match *self {
            Mutation::Install { at, name, items } => {
                let xml: String = (0..items).map(|i| format!("<v>{i}</v>")).collect();
                let _ = sys.install_doc(at, name, Tree::parse(&format!("<d>{xml}</d>")).unwrap());
            }
            Mutation::Graft { at, doc, size } => {
                let Some(d) = sys.peer(at).docs.get(&doc.into()) else {
                    return;
                };
                let root = NodeAddr::new(at, doc, d.tree().root());
                let send = Expr::Send {
                    dest: SendDest::Nodes(vec![root]),
                    payload: Box::new(Expr::Tree {
                        tree: item(size),
                        at,
                    }),
                };
                let _ = sys.eval(at, &send);
            }
            Mutation::Feed { at, doc, size } => {
                let _ = sys.feed(at, doc, item(size));
            }
            Mutation::SetLink { a, b, cost } => sys.net_mut().set_link(a, b, cost),
            Mutation::FailLink { a, b } => sys.net_mut().fail_link(a, b),
            Mutation::RestoreLink { a, b } => sys.net_mut().restore_link(a, b),
            Mutation::Outage { a, b, ms } => {
                let now = sys.now_ms();
                let plan = FaultPlan::new(1).outage(a, b, now, now + 2.0 * ms);
                sys.net_mut().set_fault_plan(plan);
                sys.net_mut().advance(ms);
            }
            Mutation::Redefine { scan } => {
                sys.register_declarative_service(PeerId(1), "scan", SCANS[scan])
                    .unwrap();
            }
            Mutation::AddReplica { at, name } => {
                sys.catalog_mut().add_doc_replica("cat-any", at, name);
            }
            Mutation::Pick(policy) => sys.set_pick_policy(policy),
        }
    }
}

/// Random searches interleaved with random mutations. Every plan the
/// system hands back — searched or reused — equals, in plan, trace, cost
/// bits and `explored`, the plan a cold search chooses on a system
/// rebuilt from the same construction and mutation log (whose first
/// search is cold by construction).
#[test]
fn a_reused_plan_is_the_plan_a_cold_search_chooses() {
    let (mut hits, mut invalidated) = (0, 0);
    for seed in 0..4 {
        let (h, i) = reuse_run(SplitMix64::new(0x9E05_ED00 + seed));
        hits += h;
        invalidated += i;
    }
    // 707 and 287 when this was written
    assert!(
        hits >= 350 && invalidated >= 140,
        "{hits} reuses, {invalidated} searches made again"
    );
}

/// One run of [`a_reused_plan_is_the_plan_a_cold_search_chooses`]: how
/// many searches were reuses, and how many searched a key again.
fn reuse_run(mut rng: SplitMix64) -> (usize, usize) {
    let shapes = reuse_shapes();
    let mut warm = reuse_system();
    let mut log: Vec<Mutation> = Vec::new();
    let mut searched = std::collections::HashSet::new();
    let mut recent: Vec<(usize, usize)> = Vec::new();
    let (mut hits, mut invalidated) = (0, 0);
    for step in 0..300 {
        if rng.gen_range(0..10u32) == 0 {
            let m = Mutation::draw(&mut rng);
            m.apply(&mut warm);
            log.push(m);
            continue;
        }
        // Half the time one of the last keys again, so that most
        // mutations fall between two searches of one key; otherwise
        // mostly the standard configuration and the one whose plans turn
        // on the pick policy.
        let (shape, config) = match rng.gen_bool(0.5) {
            true if !recent.is_empty() => *rng.choose(&recent).unwrap(),
            _ => (
                rng.gen_range(0..5u32) as usize,
                *rng.choose(&[0, 0, 0, 1, 2, 3, 4, 4]).unwrap(),
            ),
        };
        recent.retain(|&k| k != (shape, config));
        recent.push((shape, config));
        if recent.len() > 4 {
            recent.remove(0);
        }
        let opt = reuse_config(config);
        let mut obs = Obs::new();
        let got = opt.optimize_with(
            &CostModel::from_system(&warm),
            PeerId(0),
            &shapes[shape],
            &mut obs,
        );
        if obs.metrics.explored == 0 {
            hits += 1;
        } else if !searched.insert((shape, config)) {
            invalidated += 1;
        }
        let mut cold_sys = reuse_system();
        for m in &log {
            m.apply(&mut cold_sys);
        }
        let want = opt.optimize(
            &CostModel::from_system(&cold_sys),
            PeerId(0),
            &shapes[shape],
        );
        let bits = |c: &Cost| [c.bytes, c.messages, c.time_ms].map(f64::to_bits);
        assert!(
            got.expr.fingerprint() == want.expr.fingerprint()
                && got.trace == want.trace
                && bits(&got.cost) == bits(&want.cost)
                && got.explored == want.explored,
            "step {step}, shape {shape}, config {config}, after {:?}:\n reused {got}\n cold   {want}",
            log.last()
        );
    }
    (hits, invalidated)
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
