//! Forward-list delivery under failure: a batch counts as delivered only
//! once it was issued to every sink, and a list that cannot be served in
//! full is not served in part.

use axml_core::prelude::*;
use axml_xml::ids::{NodeAddr, PeerId};
use axml_xml::tree::{NodeId, Tree};

/// A client whose `inbox` subscribes to `items` over the server's `feed`,
/// results forwarded to the server's own `log` and then to `also`.
/// Returns the system, the server and the subscription id.
fn forwarding_system(also: Vec<NodeAddr>) -> (AxmlSystem, PeerId, u64) {
    let mut sys = AxmlSystem::new();
    let client = sys.add_peer("client");
    let server = sys.add_peer("server");
    sys.net_mut().set_link(client, server, LinkCost::wan());
    sys.install_doc(server, "feed", Tree::parse("<feed/>").unwrap())
        .unwrap();
    sys.install_doc(server, "log", Tree::parse("<log/>").unwrap())
        .unwrap();
    sys.register_declarative_service(server, "items", r#"doc("feed")/item"#)
        .unwrap();
    let log_root = sys.peer(server).doc(&"log".into(), server).unwrap().root();
    let mut forward = vec![NodeAddr::new(server, "log", log_root)];
    forward.extend(also);
    sys.install_doc(client, "inbox", {
        let mut t = Tree::parse("<inbox/>").unwrap();
        let root = t.root();
        let sc = ScNode {
            id: None,
            provider: PeerRef::At(server),
            service: "items".into(),
            params: vec![],
            forward,
            mode: ActivationMode::Immediate,
        };
        sc.write(&mut t, root);
        t
    })
    .unwrap();
    let ids = sys.activate_document(client, &"inbox".into()).unwrap();
    (sys, server, ids[0])
}

fn item(v: &str) -> Tree {
    Tree::parse(&format!("<item>{v}</item>")).unwrap()
}

fn doc_text(sys: &AxmlSystem, at: PeerId, name: &str) -> String {
    sys.peer(at).doc(&name.into(), at).unwrap().serialize()
}

/// A delivery that fails is not a delivery: the trees it never sent
/// are still owed once the sink is back.
#[test]
fn failed_delivery_is_not_recorded_as_delivered() {
    let (mut sys, server, id) = forwarding_system(vec![]);
    let log = sys.peer_mut(server).docs.remove(&"log".into()).unwrap();
    let lost = sys.feed(server, "feed", item("a")).unwrap_err();
    assert!(matches!(lost, CoreError::NoSuchDoc { .. }), "{lost:?}");
    sys.peer_mut(server).docs.insert(log).unwrap();
    let delivered = sys.feed(server, "feed", item("b")).unwrap();
    let sub = sys.subscriptions().find(|s| s.id == id).unwrap();
    assert_eq!((delivered, sub.delivered), (2, 2), "a is owed, b is new");
    assert_eq!(
        doc_text(&sys, server, "log"),
        "<log><item>a</item><item>b</item></log>"
    );
}

/// A forward list whose second address names an unknown peer fails
/// before its first address is served, not after: the first sink stays
/// as it was, nothing is shipped, and nothing counts as delivered — so
/// once the peer exists the whole batch arrives, once, at both sinks.
#[test]
fn bad_forward_address_fails_before_the_first_sink_is_served() {
    let late = PeerId(2);
    let x_root = NodeId::from_index(0).unwrap();
    let (mut sys, server, id) = forwarding_system(vec![NodeAddr::new(late, "x", x_root)]);
    let shipped = sys.stats().total_messages();
    let lost = sys.feed(server, "feed", item("a")).unwrap_err();
    assert_eq!(lost, CoreError::UnknownPeer(late));
    assert_eq!(doc_text(&sys, server, "log"), "<log/>");
    assert_eq!(sys.stats().total_messages(), shipped);
    let sub = sys.subscriptions().find(|s| s.id == id).unwrap();
    assert_eq!(sub.delivered, 0);

    assert_eq!(sys.add_peer("late"), late);
    sys.net_mut().set_link(server, late, LinkCost::wan());
    sys.install_doc(late, "x", Tree::parse("<x/>").unwrap())
        .unwrap();
    assert_eq!(sys.feed(server, "feed", item("b")).unwrap(), 2);
    assert_eq!(
        doc_text(&sys, server, "log"),
        "<log><item>a</item><item>b</item></log>"
    );
    assert_eq!(
        doc_text(&sys, late, "x"),
        "<x><item>a</item><item>b</item></x>"
    );
}
