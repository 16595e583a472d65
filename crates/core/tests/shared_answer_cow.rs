//! A kept answer never pins the document it was computed over.
//!
//! A query result is a `Tree::subtree` view into the document's arena, so
//! an answer kept "as the results came" would hold that arena, and every
//! later write would pay a copy-on-write of the whole document before it
//! could graft one child. That holds for a continuous call's stored
//! answer and for the answers a provider keeps for repeated one-shot
//! calls. The counter read here is process-wide, which is why these are
//! the only tests in their binary and take turns.

use axml_core::prelude::*;
use axml_xml::stats::CopyStats;
use axml_xml::tree::Tree;
use std::sync::{Mutex, MutexGuard};

fn alone() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn feeding_a_document_with_live_shared_calls_copies_none_of_it() {
    let _turn = alone();
    let mut b = AxmlSystem::builder()
        .peers(["client", "server"])
        .doc("server", "board", "<board/>")
        .service(
            "server",
            "watch",
            r#"for $i in doc("board")/item where $i/@topic = "db" return {$i}"#,
        );
    for k in 0..8 {
        let inbox = "<in><sc><peer>p1</peer><service>watch</service></sc></in>";
        b = b.doc("client", format!("inbox{k}"), inbox);
    }
    let mut sys = b.build().unwrap();
    let (client, server) = (
        sys.peer_id("client").unwrap(),
        sys.peer_id("server").unwrap(),
    );
    let item = |v: usize| Tree::parse(&format!(r#"<item topic="db">v{v}</item>"#)).unwrap();
    for v in 0..50 {
        sys.feed(server, "board", item(v)).unwrap();
    }
    for k in 0..4 {
        sys.activate_document(client, &format!("inbox{k}").into())
            .unwrap();
    }
    let before = CopyStats::snapshot();
    for v in 50..60 {
        assert_eq!(sys.feed(server, "board", item(v)).unwrap(), 4);
    }
    let fed = CopyStats::snapshot().delta_since(&before);
    assert_eq!(fed.cow_materializations, 0, "{fed:?}");
    // Joining the live call hands out views of the stored answer; they
    // are gone with the activation, and the next feeds copy nothing.
    for k in 4..8 {
        sys.activate_document(client, &format!("inbox{k}").into())
            .unwrap();
    }
    let before = CopyStats::snapshot();
    for v in 60..70 {
        assert_eq!(sys.feed(server, "board", item(v)).unwrap(), 8);
    }
    let fed = CopyStats::snapshot().delta_since(&before);
    assert_eq!(fed.cow_materializations, 0, "{fed:?}");
}

/// A provider keeps the views its service answered with, to reuse them
/// for the same call; a write to the document forgets them before it
/// touches the tree, so calling and then feeding copies nothing.
#[test]
fn writing_a_document_after_a_reused_call_copies_none_of_it() {
    let _turn = alone();
    let mut sys = AxmlSystem::builder()
        .peers(["client", "server"])
        .doc("server", "catalog", "<catalog/>")
        .service("server", "pkgs", r#"doc("catalog")//pkg"#)
        .build()
        .unwrap();
    let (client, server) = (
        sys.peer_id("client").unwrap(),
        sys.peer_id("server").unwrap(),
    );
    let pkg = |v: usize| Tree::parse(&format!(r#"<pkg name="v{v}"/>"#)).unwrap();
    for v in 0..50 {
        sys.feed(server, "catalog", pkg(v)).unwrap();
    }
    let call = Expr::Sc {
        provider: PeerRef::At(server),
        service: "pkgs".into(),
        params: vec![],
        forward: vec![],
    };
    for round in 0..10 {
        for _ in 0..2 {
            assert_eq!(sys.eval(client, &call).unwrap().len(), 50 + round);
        }
        let before = CopyStats::snapshot();
        if round % 2 == 0 {
            sys.feed(server, "catalog", pkg(50 + round)).unwrap();
        } else {
            let doc = sys.peer_mut(server).docs.get_mut(&"catalog".into());
            let t = doc.unwrap().tree_mut();
            let (root, p) = (t.root(), pkg(50 + round));
            t.graft(root, &p, p.root()).unwrap();
        }
        let wrote = CopyStats::snapshot().delta_since(&before);
        assert_eq!(wrote.cow_materializations, 0, "round {round}: {wrote:?}");
    }
    assert_eq!(
        sys.metrics().service_reuses,
        10,
        "the second call of each round is reused"
    );
}
