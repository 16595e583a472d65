//! Sends whose receiver is their sender: a local deploy, a new document
//! sent to oneself, a node list naming the sender's own nodes and a
//! provider calling its own service. Each runs the effect the remote
//! form's receiver runs, ships nothing and counts the same definitions;
//! the answers, Σ and counters are pinned as they were when each of
//! these steps wrote its effect a second time, in a local branch.

use axml_core::prelude::*;
use axml_query::Query;
use axml_xml::ids::{NodeAddr, PeerId};
use axml_xml::tree::Tree;

const CATALOG: &str = r#"<catalog><pkg name="vim"><size>4000</size></pkg><pkg name="gcc"><size>90000</size></pkg></catalog>"#;

/// One peer, `solo`, hosting `catalog`, `inbox` and `log`, with the
/// documents of `docs` in their place or beside them and the declarative
/// services of `services`: a test's starting point, and the Σ its
/// evaluation must leave.
fn solo(docs: &[(&str, &str)], services: &[(&str, &str)]) -> AxmlSystem {
    let mut all = vec![
        ("catalog", CATALOG),
        ("inbox", "<inbox><new/></inbox>"),
        ("log", "<log/>"),
    ];
    for &(name, xml) in docs {
        match all.iter_mut().find(|d| d.0 == name) {
            Some(d) => d.1 = xml,
            None => all.push((name, xml)),
        }
    }
    let mut b = AxmlSystem::builder().peer("solo");
    for (name, xml) in all {
        b = b.doc("solo", name, xml);
    }
    for &(name, src) in services {
        b = b.service("solo", name, src);
    }
    b.build().unwrap()
}

const P: PeerId = PeerId(0);

fn doc_text(sys: &AxmlSystem, name: &str) -> String {
    sys.peer(P).doc(&name.into(), P).unwrap().serialize()
}

/// Nothing crossed a link, and only definitions `defs` fired.
fn assert_local(sys: &AxmlSystem, defs: &[(u8, u64)]) {
    assert_eq!(sys.stats().total_messages(), 0);
    assert_eq!(sys.stats().total_bytes(), 0);
    assert_eq!(sys.metrics().defs(), defs);
}

#[test]
fn a_local_deploy_installs_the_service() {
    let mut sys = solo(&[], &[]);
    let src = r#"for $p in doc("catalog")//pkg return {$p/@name}"#;
    let deploy = Expr::Deploy {
        to: P,
        query: LocatedQuery::new(Query::parse("names", src).unwrap(), P),
        as_service: "names".into(),
    };
    assert!(sys.eval(P, &deploy).unwrap().is_empty());
    assert_local(&sys, &[(8, 1)]);
    assert_eq!(sys.snapshot(), solo(&[], &[("names", src)]).snapshot());
}

#[test]
fn a_new_document_sent_to_oneself_is_installed() {
    let mut sys = solo(&[], &[]);
    let send = Expr::Send {
        dest: SendDest::NewDoc {
            peer: P,
            name: "copy".into(),
        },
        payload: Box::new(Expr::Doc {
            name: "catalog".into(),
            at: PeerRef::At(P),
        }),
    };
    assert!(sys.eval(P, &send).unwrap().is_empty());
    assert_local(&sys, &[(1, 1), (3, 1)]);
    let copy = format!("<copy>{CATALOG}</copy>");
    assert_eq!(doc_text(&sys, "copy"), copy);
    assert_eq!(sys.snapshot(), solo(&[("copy", &copy)], &[]).snapshot());
    // A second send of the name breaks §2.1's uniqueness at the receiver.
    assert!(sys.eval(P, &send).is_err());
}

#[test]
fn a_node_list_of_the_senders_own_nodes_is_grafted() {
    let mut sys = solo(&[], &[]);
    let inbox = sys.peer(P).doc(&"inbox".into(), P).unwrap().clone();
    let new = inbox.first_child_labeled(inbox.root(), "new").unwrap();
    let log_root = sys.peer(P).doc(&"log".into(), P).unwrap().root();
    let send = Expr::Send {
        dest: SendDest::Nodes(vec![
            NodeAddr::new(P, "inbox", new),
            NodeAddr::new(P, "log", log_root),
        ]),
        payload: Box::new(Expr::Tree {
            tree: Tree::parse("<alert>hi</alert>").unwrap(),
            at: P,
        }),
    };
    assert!(sys.eval(P, &send).unwrap().is_empty());
    assert_local(&sys, &[(1, 1), (4, 1)]);
    assert_eq!(
        doc_text(&sys, "inbox"),
        "<inbox><new><alert>hi</alert></new></inbox>"
    );
    assert_eq!(doc_text(&sys, "log"), "<log><alert>hi</alert></log>");
    let grafted = solo(
        &[
            ("inbox", "<inbox><new><alert>hi</alert></new></inbox>"),
            ("log", "<log><alert>hi</alert></log>"),
        ],
        &[],
    );
    assert_eq!(sys.snapshot(), grafted.snapshot());
}

#[test]
fn a_provider_calling_its_own_service_forwards_and_answers() {
    let lookup = r#"for $p in doc("catalog")//pkg where $p/@name = $0/text() return {$p/size}"#;
    let mut sys = solo(&[], &[("lookup", lookup)]);
    let log_root = sys.peer(P).doc(&"log".into(), P).unwrap().root();
    let call = |forward| Expr::Sc {
        provider: PeerRef::At(P),
        service: "lookup".into(),
        params: vec![Expr::Tree {
            tree: Tree::parse("<q>gcc</q>").unwrap(),
            at: P,
        }],
        forward,
    };
    let forwarded = sys
        .eval(P, &call(vec![NodeAddr::new(P, "log", log_root)]))
        .unwrap();
    assert!(forwarded.is_empty(), "the answer went to the forward list");
    assert_local(&sys, &[(1, 1), (6, 1)]);
    let log = "<log><size>90000</size></log>";
    assert_eq!(doc_text(&sys, "log"), log);
    let forwarded = solo(&[("log", log)], &[("lookup", lookup)]).snapshot();
    assert_eq!(sys.snapshot(), forwarded);

    // Without a forward list the provider's answer is the call's value.
    let answered = sys.eval(P, &call(vec![])).unwrap();
    let answered: Vec<String> = answered.iter().map(Tree::serialize).collect();
    assert_eq!(answered, ["<size>90000</size>"]);
    assert_local(&sys, &[(1, 2), (6, 2)]);
    assert_eq!(sys.snapshot(), forwarded);
}
