//! Query text from another peer cannot make the label alphabet grow past
//! its budget: a query whose fresh names would cross `MAX_INTERNED_BYTES`
//! is a syntax error at the refused name. Alone in its binary: it fills
//! the process-wide interner.

use axml_query::{Query, QueryError};
use axml_xml::symbol::{interner_stats, ENTRY_CHARGE, MAX_INTERNED_BYTES};

/// A name of 16 KiB, distinct for each `i`.
fn long_name(i: usize) -> String {
    format!("n{i:04}{}", "x".repeat(16 * 1024 - 5))
}

/// The message and byte offset of the syntax error `src` parses to.
fn refused_at(src: &str) -> (String, usize) {
    match Query::parse("hostile", src) {
        Err(QueryError::Syntax { msg, offset }) => (msg, offset),
        other => panic!("expected a syntax error, got {other:?}"),
    }
}

#[test]
fn a_query_past_the_budget_is_a_typed_error() {
    let names: Vec<String> = (0..1024).map(long_name).collect();
    let mut src = String::from("doc(\"d\")");
    for name in &names {
        src.push('/');
        src.push_str(name);
    }
    let (msg, at) = refused_at(&src);
    assert!(msg.contains("alphabet"), "{msg}");
    assert_eq!(&src[at - 1..at], "/", "points at a step's name");
    let (labels, bytes) = interner_stats();
    assert!(
        bytes + labels * ENTRY_CHARGE <= MAX_INTERNED_BYTES,
        "{labels} labels, {bytes} bytes"
    );

    // Names already interned still parse; fresh ones in an attribute
    // step and a template are refused where they start.
    Query::parse("known", &format!("doc(\"d\")/{}/@{}", names[0], names[1])).unwrap();
    let fresh = long_name(5000);
    let attr = format!("doc(\"d\")/@{fresh}");
    assert_eq!(refused_at(&attr).1, attr.len() - fresh.len());
    let template = format!("for $x in doc(\"d\")/{} return <{fresh}/>", names[0]);
    assert_eq!(refused_at(&template).1, template.len() - fresh.len() - 2);
    let template_attr = format!(
        "for $x in doc(\"d\")/{} return <{} {fresh}=\"v\"/>",
        names[0], names[1]
    );
    assert_eq!(
        refused_at(&template_attr).1,
        template_attr.len() - fresh.len() - 6
    );
}
