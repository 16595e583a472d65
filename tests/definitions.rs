//! Fidelity tests: one scenario per evaluation definition of §3.2.
//!
//! Each test builds the smallest system that exercises exactly one of the
//! paper's definitions (1)–(9) and checks the *observable contract* the
//! paper states for it — return value, side effects, and who talked to
//! whom.

use axml::prelude::*;
use axml::xml::tree::Tree;

fn duo() -> (AxmlSystem, PeerId, PeerId) {
    let sys = AxmlSystem::builder()
        .peers(["p0", "p1"])
        .link("p0", "p1", LinkCost::wan())
        .build()
        .unwrap();
    let (p0, p1) = (sys.peer_id("p0").unwrap(), sys.peer_id("p1").unwrap());
    (sys, p0, p1)
}

/// Definition (1): evaluating a plain tree returns the tree; *"for any
/// tree t@p0 containing no sc node, eval@p0(t@p0) = t@p0"*.
#[test]
fn definition_1_plain_tree_identity() {
    let (mut sys, p0, _) = duo();
    let t = Tree::parse("<a><b>x</b><c/></a>").unwrap();
    let out = sys
        .eval(
            p0,
            &Expr::Tree {
                tree: t.clone(),
                at: p0,
            },
        )
        .unwrap();
    assert_eq!(out.len(), 1);
    assert!(whole_tree_equiv(&out[0], &t));
    assert_eq!(sys.stats().total_messages(), 0);
    assert_eq!(sys.now_ms(), 0.0, "no time passes for local evaluation");
}

/// Definition (2): a local query over local trees is ordinary evaluation.
#[test]
fn definition_2_local_query() {
    let (mut sys, p0, _) = duo();
    let q = Query::parse("q", "for $x in $0//v return <out>{$x/text()}</out>").unwrap();
    let arg = Tree::parse("<in><v>1</v><v>2</v></in>").unwrap();
    let out = sys
        .eval(
            p0,
            &Expr::Apply {
                query: LocatedQuery::new(q, p0),
                args: vec![Expr::Tree { tree: arg, at: p0 }],
            },
        )
        .unwrap();
    assert_eq!(out.len(), 2);
    assert_eq!(sys.stats().total_messages(), 0);
}

/// Definition (3): evaluating `send(p1, t@p0)` at p0 returns ∅ at p0 and,
/// as a side effect, a copy of t moves to p1.
#[test]
fn definition_3_send_returns_empty() {
    let (mut sys, p0, p1) = duo();
    let t = Tree::parse("<payload>data</payload>").unwrap();
    let out = sys
        .eval(
            p0,
            &Expr::Send {
                dest: SendDest::Peer(p1),
                payload: Box::new(Expr::Tree { tree: t, at: p0 }),
            },
        )
        .unwrap();
    assert!(out.is_empty(), "the send expression evaluates to ∅");
    assert_eq!(sys.stats().link(p0, p1).messages, 1);
}

/// Definition (4): sending to a node list appends a copy under each node.
#[test]
fn definition_4_send_to_node_list() {
    let (mut sys, p0, p1) = duo();
    let p2 = sys.add_peer("p2");
    sys.install_doc(p1, "d1", Tree::parse("<d1><slot/></d1>").unwrap())
        .unwrap();
    sys.install_doc(p2, "d2", Tree::parse("<d2/>").unwrap())
        .unwrap();
    let slot = {
        let t = sys.peer(p1).docs.get(&"d1".into()).unwrap().tree();
        t.first_child_labeled(t.root(), "slot").unwrap()
    };
    let d2_root = sys.peer(p2).docs.get(&"d2".into()).unwrap().tree().root();
    sys.eval(
        p0,
        &Expr::Send {
            dest: SendDest::Nodes(vec![
                NodeAddr::new(p1, "d1", slot),
                NodeAddr::new(p2, "d2", d2_root),
            ]),
            payload: Box::new(Expr::Tree {
                tree: Tree::parse("<x/>").unwrap(),
                at: p0,
            }),
        },
    )
    .unwrap();
    assert_eq!(
        sys.peer(p1)
            .docs
            .get(&"d1".into())
            .unwrap()
            .tree()
            .serialize(),
        "<d1><slot><x/></slot></d1>"
    );
    assert_eq!(
        sys.peer(p2)
            .docs
            .get(&"d2".into())
            .unwrap()
            .tree()
            .serialize(),
        "<d2><x/></d2>"
    );
    // one message per destination
    assert_eq!(sys.stats().total_messages(), 2);
}

/// Definition (5): a remote datum is evaluated by its owner and the
/// result shipped back; the owner's Σ is unchanged.
#[test]
fn definition_5_remote_evaluation() {
    let (mut sys, p0, p1) = duo();
    sys.install_doc(p1, "d", Tree::parse("<d><v>7</v></d>").unwrap())
        .unwrap();
    let sigma_before = sys.snapshot();
    let out = sys
        .eval(
            p0,
            &Expr::Doc {
                name: "d".into(),
                at: PeerRef::At(p1),
            },
        )
        .unwrap();
    assert_eq!(out[0].serialize(), "<d><v>7</v></d>");
    assert_eq!(sys.snapshot(), sigma_before, "p1's documents unchanged");
    // request out, data back
    assert_eq!(sys.stats().link(p0, p1).messages, 1);
    assert_eq!(sys.stats().link(p1, p0).messages, 1);
}

/// Definition (6): sc activation — params to the provider once, the
/// provider's query runs there, results go to the forward list.
#[test]
fn definition_6_service_call_steps() {
    let (mut sys, p0, p1) = duo();
    sys.install_doc(
        p1,
        "data",
        Tree::parse("<data><n>5</n><n>9</n></data>").unwrap(),
    )
    .unwrap();
    sys.register_declarative_service(
        p1,
        "over",
        r#"for $n in doc("data")/n where $n/text() > $0/text() return {$n}"#,
    )
    .unwrap();
    let out = sys
        .eval(
            p0,
            &Expr::Sc {
                provider: PeerRef::At(p1),
                service: "over".into(),
                params: vec![Expr::Tree {
                    tree: Tree::parse("<min>6</min>").unwrap(),
                    at: p0,
                }],
                forward: vec![],
            },
        )
        .unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].serialize(), "<n>9</n>");
    assert_eq!(sys.stats().link(p0, p1).messages, 1, "one invoke");
    assert_eq!(sys.stats().link(p1, p0).messages, 1, "one response");
}

/// Definition (7): a query defined at p2 but evaluated at p1 requires the
/// definition to cross the wire (and the naive strategy drags the data
/// along too).
#[test]
fn definition_7_remote_definition_ships() {
    let (mut sys, p0, p1) = duo();
    let q = Query::parse("q", "$0//v").unwrap();
    let arg = Tree::parse("<in><v>1</v></in>").unwrap();
    // definition lives at p1; evaluation happens at p0
    sys.eval(
        p0,
        &Expr::Apply {
            query: LocatedQuery::new(q.clone(), p1),
            args: vec![Expr::Tree { tree: arg, at: p0 }],
        },
    )
    .unwrap();
    assert_eq!(
        sys.stats().link(p1, p0).messages,
        1,
        "the definition crossed p1 → p0"
    );
    assert!(sys.stats().link(p1, p0).bytes >= q.wire_size() as u64);
}

/// Definition (8): `send(p2, q@p1)` deploys the query as a new service.
#[test]
fn definition_8_code_shipping() {
    let (mut sys, p0, p1) = duo();
    let q = Query::parse("q", "for $x in $0 return <wrapped>{$x}</wrapped>").unwrap();
    let out = sys
        .eval(
            p0,
            &Expr::Deploy {
                to: p1,
                query: LocatedQuery::new(q, p0),
                as_service: "wrapper".into(),
            },
        )
        .unwrap();
    assert!(out.is_empty());
    assert!(sys.peer(p1).services().contains_key(&"wrapper".into()));
    assert_eq!(sys.stats().link(p0, p1).messages, 1);
}

/// Definition (9): a generic reference is resolved by pickDoc before the
/// enclosing expression is evaluated.
#[test]
fn definition_9_generic_resolution() {
    let (mut sys, p0, p1) = duo();
    let p2 = sys.add_peer("p2");
    sys.net_mut().set_link(p0, p2, LinkCost::lan());
    let content = Tree::parse("<c><v>1</v></c>").unwrap();
    sys.install_replica(p1, "cls", "c1", content.clone())
        .unwrap();
    sys.install_replica(p2, "cls", "c2", content).unwrap();
    sys.set_pick_policy(PickPolicy::Closest);
    let q = Query::parse("q", "$0//v").unwrap();
    // expr(d@any): the reference appears inside a larger expression
    let out = sys
        .eval(
            p0,
            &Expr::Apply {
                query: LocatedQuery::new(q, p0),
                args: vec![Expr::Doc {
                    name: "cls".into(),
                    at: PeerRef::Any,
                }],
            },
        )
        .unwrap();
    assert_eq!(out.len(), 1);
    // picked the LAN replica (p2), not the WAN one (p1)
    assert_eq!(sys.stats().link(p1, p0).messages, 0);
    assert!(sys.stats().link(p2, p0).messages > 0);
}
