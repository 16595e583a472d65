//! A call's stored answer never pins the document it was computed over.
//!
//! A query result is a `Tree::subtree` view into the document's arena, so
//! an answer kept "as the results came" would hold that arena, and every
//! later `feed` would pay a copy-on-write of the whole document before it
//! could graft one child. The counter read here is process-wide, which is
//! why this is the only test in its binary.

use axml_core::prelude::*;
use axml_xml::stats::CopyStats;
use axml_xml::tree::Tree;

#[test]
fn feeding_a_document_with_live_shared_calls_copies_none_of_it() {
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
