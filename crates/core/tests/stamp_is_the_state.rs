//! A peer's stamp is its state: every door that changes Σ|p moves
//! `PeerState::stamp`, and nothing else does — no read, and no mutation
//! that is rejected. The caches of functions of Σ|p (cost-model
//! statistics, chosen plans and the answers a provider keeps for
//! repeated calls) are valid exactly while it holds. The rest of what the cost model reads — the link table and
//! the catalog — stamps itself the same way.

use axml_core::prelude::*;
use axml_net::sim::LinkTable;
use axml_query::Query;
use axml_xml::ids::{NodeAddr, PeerId};
use axml_xml::store::Document;
use axml_xml::tree::{NodeId, Tree};

/// A client `a` and a server `b` over a WAN. `b` hosts a catalog and a
/// service over it; each hosts one replica of the class `cat`; `a` has
/// an `inbox` to send into.
fn system() -> (AxmlSystem, PeerId, PeerId) {
    let mut sys = AxmlSystem::new();
    let a = sys.add_peer("a");
    let b = sys.add_peer("b");
    sys.net_mut().set_link(a, b, LinkCost::wan());
    sys.install_doc(b, "catalog", Tree::parse("<catalog/>").unwrap())
        .unwrap();
    sys.register_declarative_service(b, "pkgs", r#"doc("catalog")/pkg"#)
        .unwrap();
    sys.install_doc(a, "inbox", Tree::parse("<inbox/>").unwrap())
        .unwrap();
    sys.install_replica(a, "cat", "cat-a", Tree::parse("<cat/>").unwrap())
        .unwrap();
    sys.install_replica(b, "cat", "cat-b", Tree::parse("<cat/>").unwrap())
        .unwrap();
    (sys, a, b)
}

fn item(v: &str) -> Tree {
    Tree::parse(&format!(r#"<pkg name="{v}"/>"#)).unwrap()
}

fn stamps(sys: &AxmlSystem) -> Vec<(u64, u64)> {
    (0..sys.peer_count())
        .map(|p| sys.peer(PeerId(p as u32)).stamp())
        .collect()
}

/// Run `door` and assert that it moved `p`'s stamp.
fn moves(sys: &mut AxmlSystem, p: PeerId, what: &str, door: impl FnOnce(&mut AxmlSystem)) {
    let before = sys.peer(p).stamp();
    door(sys);
    assert_ne!(sys.peer(p).stamp(), before, "{what} must move the stamp");
}

/// Run `op` and assert that no peer's stamp moved.
fn holds(sys: &mut AxmlSystem, what: &str, op: impl FnOnce(&mut AxmlSystem)) {
    let before = stamps(sys);
    op(sys);
    assert_eq!(stamps(sys), before, "{what} must not move a stamp");
}

fn root(sys: &AxmlSystem, at: PeerId, doc: &str) -> NodeAddr {
    let t = sys.peer(at).doc(&doc.into(), at).unwrap();
    NodeAddr::new(at, doc, t.root())
}

fn send(dest: SendDest, at: PeerId) -> Expr {
    Expr::Send {
        dest,
        payload: Box::new(Expr::Tree {
            tree: item("sent"),
            at,
        }),
    }
}

#[test]
fn every_door_moves_the_stamp() {
    let (mut sys, a, b) = system();
    moves(&mut sys, a, "install_doc", |sys| {
        sys.install_doc(a, "d", Tree::parse("<d/>").unwrap())
            .unwrap()
    });
    moves(&mut sys, b, "install_replica", |sys| {
        sys.install_replica(b, "cls", "cls-b", Tree::parse("<c/>").unwrap())
            .unwrap()
    });
    moves(&mut sys, b, "register_service", |sys| {
        let q = Query::parse("all", r#"doc("catalog")/*"#).unwrap();
        sys.register_service(b, Service::declarative("all", q))
            .unwrap()
    });
    moves(&mut sys, b, "register_declarative_service", |sys| {
        sys.register_declarative_service(b, "one", r#"doc("catalog")/pkg"#)
            .unwrap()
    });
    moves(&mut sys, b, "feed", |sys| {
        sys.feed(b, "catalog", item("fed")).unwrap();
    });
    for (p, side) in [(a, "origin"), (b, "sibling")] {
        moves(&mut sys, p, &format!("feed_replicas ({side})"), |sys| {
            sys.feed_replicas(a, &"cat".into(), item("update")).unwrap();
        });
    }
    for (p, at) in [(a, a), (a, b)] {
        let dest = SendDest::Nodes(vec![root(&sys, a, "inbox")]);
        moves(&mut sys, p, "a send to nodes", |sys| {
            sys.eval(at, &send(dest, at)).unwrap();
        });
    }
    for (name, at) in [("fresh-local", a), ("fresh-remote", b)] {
        let dest = SendDest::NewDoc {
            peer: a,
            name: name.into(),
        };
        moves(&mut sys, a, "a send to a new document", |sys| {
            sys.eval(at, &send(dest, at)).unwrap();
        });
    }
    for (name, to) in [("deployed-local", a), ("deployed-remote", b)] {
        let query = LocatedQuery::new(Query::parse(name, "$0/*").unwrap(), a);
        let deploy = Expr::Deploy {
            to,
            query,
            as_service: name.into(),
        };
        moves(&mut sys, to, "a Deploy", |sys| {
            sys.eval(a, &deploy).unwrap();
        });
    }
    let lazy = ScNode {
        id: None,
        provider: PeerRef::At(b),
        service: "pkgs".into(),
        params: vec![],
        forward: vec![],
        mode: ActivationMode::Lazy,
    };
    let mut t = Tree::parse("<d/>").unwrap();
    let r = t.root();
    lazy.write(&mut t, r);
    sys.install_doc(a, "lazy", t).unwrap();
    moves(&mut sys, a, "a lazy activation", |sys| {
        let q = Query::parse("all", "$0/*").unwrap();
        let (_, activated) = sys.query_document(a, &"lazy".into(), &q).unwrap();
        assert_eq!(activated, 1);
    });
    let older = sys.peer(a).docs.clone();
    moves(&mut sys, a, "docs.get_mut", |sys| {
        sys.peer_mut(a).docs.get_mut(&"inbox".into()).unwrap();
    });
    moves(&mut sys, a, "docs.require_mut", |sys| {
        sys.peer_mut(a).docs.require_mut(&"inbox".into()).unwrap();
    });
    let inbox = root(&sys, a, "inbox").node;
    moves(&mut sys, a, "docs.node_mut", |sys| {
        sys.peer_mut(a)
            .docs
            .node_mut(&"inbox".into(), inbox)
            .unwrap();
    });
    moves(&mut sys, a, "docs.insert", |sys| {
        let doc = Document::new("extra", item("extra"));
        sys.peer_mut(a).docs.insert(doc).unwrap();
    });
    moves(&mut sys, a, "docs.insert_or_replace", |sys| {
        let doc = Document::new("extra", item("replaced"));
        sys.peer_mut(a).docs.insert_or_replace(doc);
    });
    moves(&mut sys, a, "docs.remove", |sys| {
        sys.peer_mut(a).docs.remove(&"extra".into()).unwrap();
    });
    moves(&mut sys, a, "assigning an older store", |sys| {
        sys.peer_mut(a).docs = older;
    });
}

#[test]
fn every_read_keeps_the_stamp() {
    let (mut sys, a, b) = system();
    sys.feed(b, "catalog", item("vim")).unwrap();
    holds(&mut sys, "peer()", |sys| {
        let _ = (sys.peer(a).docs.len(), sys.peer(b).services().len());
    });
    holds(&mut sys, "CostModel::from_system", |sys| {
        CostModel::from_system(sys);
    });
    holds(&mut sys, "snapshot", |sys| {
        sys.snapshot();
    });
    holds(&mut sys, "peer_mut without a mutation", |sys| {
        sys.peer_mut(a).docs.get(&"inbox".into()).unwrap();
    });
    let names = Query::parse("names", "$0//pkg/@name").unwrap();
    for at in [a, b] {
        let query = Expr::Apply {
            query: LocatedQuery::new(names.clone(), at),
            args: vec![Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(b),
            }],
        };
        holds(&mut sys, "a pure query", |sys| {
            assert_eq!(sys.eval(at, &query).unwrap().len(), 1);
        });
    }
}

#[test]
fn every_rejected_mutation_keeps_the_stamp() {
    let (mut sys, a, b) = system();
    holds(&mut sys, "a duplicate install_doc", |sys| {
        assert!(sys
            .install_doc(a, "inbox", Tree::parse("<x/>").unwrap())
            .is_err());
    });
    holds(&mut sys, "a feed into an unknown document", |sys| {
        assert!(sys.feed(b, "no-such-doc", item("lost")).is_err());
    });
    for at in [a, b] {
        let dest = SendDest::NewDoc {
            peer: a,
            name: "inbox".into(),
        };
        holds(&mut sys, "a send to a taken document name", |sys| {
            assert!(sys.eval(at, &send(dest, at)).is_err());
        });
    }
}

/// A send to a node the document does not have is rejected before the
/// document is borrowed mutably: neither the peer's stamp nor the
/// document's moves, so its watchers keep their shortcuts and the
/// peer's statistics and plans stay warm.
#[test]
fn a_failed_graft_moves_no_stamp() {
    let (mut sys, a, b) = system();
    let nowhere = NodeAddr::new(a, "inbox", NodeId::from_index(999).unwrap());
    let doc_stamp = |sys: &AxmlSystem| sys.peer(a).docs.get(&"inbox".into()).unwrap().stamp();
    for at in [a, b] {
        let before = doc_stamp(&sys);
        let dest = SendDest::Nodes(vec![nowhere.clone()]);
        holds(&mut sys, "a graft under a missing node", |sys| {
            let e = sys.eval(at, &send(dest, at)).unwrap_err();
            assert!(
                matches!(
                    e,
                    CoreError::Xml(axml_xml::XmlError::InvalidNode { index: 999 })
                ),
                "{e:?}"
            );
        });
        assert_eq!(doc_stamp(&sys), before, "the document's stamp holds");
    }
    // the same, into a document the peer does not host
    let elsewhere = NodeAddr::new(a, "no-such-doc", NodeId::from_index(0).unwrap());
    for at in [a, b] {
        let dest = SendDest::Nodes(vec![elsewhere.clone()]);
        holds(&mut sys, "a graft into a missing document", |sys| {
            let e = sys.eval(at, &send(dest, at)).unwrap_err();
            assert!(matches!(e, CoreError::NoSuchDoc { .. }), "{e:?}");
        });
    }
    // and the door itself, asked for either
    let before = doc_stamp(&sys);
    holds(&mut sys, "a rejected node_mut", |sys| {
        let docs = &mut sys.peer_mut(a).docs;
        assert!(docs.node_mut(&"inbox".into(), nowhere.node).is_err());
        assert!(docs
            .node_mut(&"no-such-doc".into(), elsewhere.node)
            .is_err());
    });
    assert_eq!(doc_stamp(&sys), before, "the document's stamp holds");
}

/// Run `op` and tell whether it moved the link table's stamp and the
/// catalog's, asserting that it moved no peer's.
fn moved(sys: &mut AxmlSystem, what: &str, op: impl FnOnce(&mut AxmlSystem)) -> (bool, bool) {
    let table = |sys: &AxmlSystem| (sys.net().links().stamp(), sys.catalog().stamp());
    let before = table(sys);
    holds(sys, what, op);
    let after = table(sys);
    (after.0 != before.0, after.1 != before.1)
}

/// What else the cost model reads stamps itself the same way: each door
/// of the link table and of the catalog moves its own stamp, and a pick,
/// a send, the clock and a fault plan move neither (nor a peer's).
#[test]
fn the_link_table_and_the_catalog_stamp_their_doors() {
    let (mut sys, a, b) = system();
    let (links, catalog, neither) = ((true, false), (false, true), (false, false));
    let mut door = |what: &str, op: &dyn Fn(&mut AxmlSystem), want: (bool, bool)| {
        assert_eq!(moved(&mut sys, what, op), want, "{what}");
    };
    door(
        "set_link",
        &|s| s.net_mut().set_link(a, b, LinkCost::slow()),
        links,
    );
    door(
        "set_link_directed",
        &|s| s.net_mut().set_link_directed(b, a, LinkCost::lan()),
        links,
    );
    door("fail_link", &|s| s.net_mut().fail_link(a, b), links);
    door("restore_link", &|s| s.net_mut().restore_link(a, b), links);
    door(
        "add_doc_replica",
        &|s| s.catalog_mut().add_doc_replica("cat", b, "catalog"),
        catalog,
    );
    door(
        "add_service_replica",
        &|s| s.catalog_mut().add_service_replica("any-pkgs", b, "pkgs"),
        catalog,
    );
    door("advance", &|s| s.net_mut().advance(5.0), neither);
    door(
        "set_fault_plan",
        &|s| s.net_mut().set_fault_plan(FaultPlan::new(7).jitter_ms(1.0)),
        neither,
    );
    door(
        "a send",
        &|s| {
            s.eval(a, &send(SendDest::Peer(b), a)).unwrap();
        },
        neither,
    );
    // A round-robin pick moves its class's cursor, which no model reads:
    // `cat` is `<cat/>` at a and b, then `<catalog/>` at b.
    sys.set_pick_policy(PickPolicy::RoundRobin);
    let any = Expr::Doc {
        name: "cat".into(),
        at: PeerRef::Any,
    };
    let mut picked = Vec::new();
    for _ in 0..3 {
        let op = |s: &mut AxmlSystem| picked.push(s.eval(a, &any).unwrap());
        assert_eq!(moved(&mut sys, "a round-robin pick", op), (false, false));
    }
    assert_eq!(picked[0], picked[1]);
    assert_ne!(picked[0], picked[2], "the cursor went round");
}

/// `install_topology` lays down a block of links by rule on an empty
/// network and by point overrides on a non-empty one; either way the
/// table's stamp moves, and a snapshot taken before keeps its links.
#[test]
fn install_topology_moves_the_link_stamp() {
    let block = Topology::Uniform {
        n: 2,
        cost: LinkCost::wan(),
    };
    let mut net: SimTransport<String> = SimTransport::new();
    for peers in [2, 4] {
        let before: std::sync::Arc<LinkTable> = net.links().clone();
        net.install_topology(&block);
        assert_eq!(net.peer_count(), peers);
        assert_ne!(net.links().stamp(), before.stamp(), "{peers} peers");
        let (p, q) = (PeerId(peers as u32 - 2), PeerId(peers as u32 - 1));
        assert_eq!(net.link(p, q), LinkCost::wan());
        assert_eq!(before.link(p, q), LinkCost::lan(), "the snapshot holds");
    }
}

/// `service` at `b` called from `a` over `params` (one forest each).
fn call(
    sys: &mut AxmlSystem,
    a: PeerId,
    b: PeerId,
    service: &str,
    params: &[Tree],
) -> CoreResult<Vec<Tree>> {
    let params = params
        .iter()
        .map(|t| Expr::Tree {
            tree: t.clone(),
            at: a,
        })
        .collect();
    let sc = Expr::Sc {
        provider: PeerRef::At(b),
        service: service.into(),
        params,
        forward: vec![],
    };
    sys.eval(a, &sc)
}

/// What a fresh evaluation of the service body says, at `b`'s state now.
fn fresh(sys: &AxmlSystem, b: PeerId, service: &str, params: &[Tree]) -> Vec<Tree> {
    let forests: Vec<Vec<Tree>> = params.iter().map(|t| vec![t.clone()]).collect();
    let state = sys.peer(b);
    let svc = state.service(&service.into(), b).unwrap();
    svc.query.eval_with_docs(&forests, state).unwrap()
}

/// `call` that asserts the answer is the fresh one, and tells whether the
/// provider reused a kept answer for it.
fn exact(sys: &mut AxmlSystem, a: PeerId, b: PeerId, service: &str, params: &[Tree]) -> bool {
    let reuses = sys.metrics().service_reuses;
    let got = call(sys, a, b, service, params).unwrap();
    assert_eq!(
        got,
        fresh(sys, b, service, params),
        "{service} answered stale"
    );
    sys.metrics().service_reuses - reuses == 1
}

/// A `named` service at `b`: the catalog's packages named like `$0`.
fn with_named(sys: &mut AxmlSystem, b: PeerId) {
    sys.register_declarative_service(
        b,
        "named",
        r#"for $p in doc("catalog")/pkg for $w in $0 where $p/@name = $w/@name return {$p}"#,
    )
    .unwrap();
}

fn graft_pkg(sys: &mut AxmlSystem, b: PeerId, name: &str) {
    let doc = sys.peer_mut(b).docs.get_mut(&"catalog".into()).unwrap();
    let t = doc.tree_mut();
    let (root, pkg) = (t.root(), item(name));
    t.graft(root, &pkg, pkg.root()).unwrap();
}

/// The provider's call memo is exact: an answer is reused only while
/// the provider's stamp holds, each door that changes Σ|p forgets it,
/// the memo keeps 16 answers, and a failed call keeps nothing.
#[test]
fn the_call_memo_is_exact() {
    let (mut sys, a, b) = system();
    with_named(&mut sys, b);
    sys.feed(b, "catalog", item("vim")).unwrap();
    assert!(!exact(&mut sys, a, b, "pkgs", &[]), "a first call runs");
    assert!(
        exact(&mut sys, a, b, "pkgs", &[]),
        "a repeated call is reused"
    );
    assert!(exact(&mut sys, b, b, "pkgs", &[]), "from any caller");
    let vim = call(&mut sys, a, b, "named", &[item("vim")]).unwrap();
    assert_eq!(vim, vec![item("vim")], "the parameter selects");

    graft_pkg(&mut sys, b, "emacs");
    assert!(!exact(&mut sys, a, b, "pkgs", &[]), "docs.get_mut forgets");
    assert_eq!(call(&mut sys, a, b, "pkgs", &[]).unwrap().len(), 2);
    sys.peer_mut(b)
        .docs
        .insert_or_replace(Document::new("catalog", Tree::parse("<catalog/>").unwrap()));
    assert!(
        !exact(&mut sys, a, b, "pkgs", &[]),
        "insert_or_replace forgets"
    );
    assert!(call(&mut sys, a, b, "pkgs", &[]).unwrap().is_empty());
    sys.register_declarative_service(b, "pkgs", r#"doc("catalog")"#)
        .unwrap();
    assert!(!exact(&mut sys, a, b, "pkgs", &[]), "a new body forgets");
    assert!(exact(&mut sys, a, b, "pkgs", &[]));

    // 17 distinct parameter forests: the first is evicted, the last kept.
    let wants: Vec<Tree> = (0..17).map(|i| item(&format!("p{i}"))).collect();
    for w in &wants {
        assert!(!exact(&mut sys, a, b, "named", std::slice::from_ref(w)));
    }
    assert!(!exact(&mut sys, a, b, "named", &wants[..1]), "evicted");
    assert!(exact(&mut sys, a, b, "named", &wants[16..]), "kept");

    // Errors are never kept: a wrong arity fails every time, uncounted.
    let reuses = sys.metrics().service_reuses;
    for _ in 0..2 {
        assert!(call(&mut sys, a, b, "named", &[]).is_err());
    }
    assert_eq!(sys.metrics().service_reuses, reuses);
}

/// Calls interleaved with every kind of change to the provider, on one
/// seeded sequence: each answer equals a fresh evaluation.
#[test]
fn a_seeded_mix_of_calls_and_changes_never_reads_a_stale_answer() {
    let (mut sys, a, b) = system();
    with_named(&mut sys, b);
    let mut rng = axml_prng::SplitMix64::new(0x5EED_0036);
    let names = ["vim", "emacs", "nano", "ed"];
    let (mut calls, mut reused) = (0, 0);
    for step in 0..400 {
        let name = names[rng.gen_range(0..names.len())];
        match rng.gen_range(0..10u32) {
            0 => sys.feed(b, "catalog", item(name)).map(drop).unwrap(),
            1 => graft_pkg(&mut sys, b, name),
            2 => sys.peer_mut(b).docs.insert_or_replace(Document::new(
                "catalog",
                Tree::parse(&format!(r#"<catalog><pkg name="{name}"/></catalog>"#)).unwrap(),
            )),
            3 => {
                let body = [r#"doc("catalog")/pkg"#, r#"doc("catalog")/pkg/@name"#][step % 2];
                sys.register_declarative_service(b, "pkgs", body).unwrap();
            }
            4..=6 => {
                calls += 1;
                reused += usize::from(exact(&mut sys, a, b, "pkgs", &[]));
            }
            _ => {
                let caller = [a, b][rng.gen_range(0..2usize)];
                calls += 1;
                reused += usize::from(exact(&mut sys, caller, b, "named", &[item(name)]));
            }
        }
    }
    assert!(
        calls > 200 && reused > 50,
        "{reused} of {calls} calls reused"
    );
}
