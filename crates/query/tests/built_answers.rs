//! An element template's answers are built side by side: ten `select-big`
//! answers are handles of one arena, each name is the catalog's own
//! string, and grafting every answer into a document copies no arena on
//! write.
//!
//! `CopyStats` counters are process-wide, so this must be the only test
//! in its binary: tests running on parallel threads would land in the
//! same delta.

use axml_query::Query;
use axml_xml::stats::CopyStats;
use axml_xml::tree::{NodeId, Tree};
use std::fmt::Write;
use std::sync::Arc;

/// The string `t` holds as attribute `name` of `node`.
fn attr(t: &Tree, node: NodeId, name: &str) -> Arc<str> {
    let (_, value) = t
        .attrs(node)
        .iter()
        .find(|(k, _)| k.as_str() == name)
        .unwrap();
    Arc::clone(value)
}

/// The string of the only text child of `node`'s first child.
fn first_text(t: &Tree, node: NodeId) -> Arc<str> {
    let text = t.children(t.children(node)[0])[0];
    match t.node(text).kind() {
        axml_xml::NodeKind::Text(s) => Arc::clone(s),
        other => panic!("not text: {other:?}"),
    }
}

#[test]
fn select_big_answers_share_one_arena_and_the_catalogs_strings() {
    let mut xml = String::from("<catalog>");
    for i in 0..100 {
        let size = if i % 10 == 0 { 120_000 } else { 30_000 } + i;
        let _ = write!(
            xml,
            r#"<pkg name="pkg-{i:03}"><size>{size}</size><desc>package {i}</desc></pkg>"#
        );
    }
    xml.push_str("</catalog>");
    let catalog = Tree::parse(&xml).unwrap();
    let src = r#"for $p in $0//pkg where $p/size/text() > 100000
        return <big name="{$p/@name}">{$p/size}</big>"#;
    let q = Query::parse("select-big", src).unwrap();
    let answers = q.eval_batch(&[vec![catalog.clone()]]).unwrap();
    assert_eq!(answers.len(), 10);

    // One arena of the evaluation's own, the first answer at its slot 0.
    assert!(answers.iter().all(|a| a.shares_arena_with(&answers[0])));
    assert!(!answers[0].shares_arena_with(&catalog));
    assert_eq!(answers[0].root(), NodeId::from_index(0).unwrap());

    // In the nested loop's order, each sharing the package's strings.
    let big = catalog.children(catalog.root()).iter().step_by(10);
    for (a, &pkg) in answers.iter().zip(big) {
        let want = format!(
            r#"<big name="{}">{}</big>"#,
            catalog.attr(pkg, "name").unwrap(),
            catalog.serialize_node(catalog.children(pkg)[0])
        );
        assert_eq!(a.serialize(), want);
        let name = attr(a, a.root(), "name");
        assert!(Arc::ptr_eq(&name, &attr(&catalog, pkg, "name")), "{name}");
        assert!(Arc::ptr_eq(
            &first_text(a, a.root()),
            &first_text(&catalog, pkg)
        ));
    }

    // The answers' arena is no document's: grafting each into one copies
    // the answer, and no arena on write.
    let rendered: Vec<String> = answers.iter().map(Tree::serialize).collect();
    let mut inbox = Tree::new("inbox");
    let root = inbox.root();
    let before = CopyStats::snapshot();
    for a in &answers {
        inbox.graft(root, a, a.root()).unwrap();
    }
    let grafted = CopyStats::snapshot().delta_since(&before);
    assert_eq!(grafted.cow_materializations, 0, "{grafted:?}");
    assert_eq!(grafted.nodes_copied, 10 * 3);
    let after: Vec<String> = answers.iter().map(Tree::serialize).collect();
    assert_eq!(after, rendered);
    assert_eq!(inbox.children(root).len(), 10);
}
