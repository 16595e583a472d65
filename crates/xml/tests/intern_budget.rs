//! Outside text cannot make the label alphabet grow past its budget: a
//! document whose fresh names would cross `MAX_INTERNED_BYTES` is a
//! positioned parse error, not a panic or an unbounded heap. Alone in its
//! binary: it fills the process-wide interner.

use axml_xml::symbol::{interner_stats, Label, ENTRY_CHARGE, MAX_INTERNED_BYTES};
use axml_xml::{Tree, XmlError};

/// A name of 16 KiB, distinct for each `i`.
fn long_name(i: usize) -> String {
    format!("n{i:04}{}", "x".repeat(16 * 1024 - 5))
}

/// Where a parse error points, as a byte offset into one-line `xml`.
fn refused_at(xml: &str) -> (String, usize) {
    match Tree::parse(xml) {
        Err(XmlError::Parse { msg, line: 1, col }) => (msg, col as usize - 1),
        other => panic!("expected a parse error on line 1, got {other:?}"),
    }
}

#[test]
fn a_document_past_the_budget_is_a_typed_error() {
    let names: Vec<String> = (0..1024).map(long_name).collect();
    let mut xml = String::from("<r>");
    for name in &names {
        xml.push_str(&format!("<{name}/>"));
    }
    xml.push_str("</r>");
    assert!(names.len() as u64 * (16 * 1024 + ENTRY_CHARGE) > MAX_INTERNED_BYTES);

    let (msg, at) = refused_at(&xml);
    assert!(msg.contains("alphabet"), "{msg}");
    assert_eq!(&xml[at - 1..at], "<", "points at an element name");
    let (labels, bytes) = interner_stats();
    assert!(
        bytes + labels * ENTRY_CHARGE <= MAX_INTERNED_BYTES,
        "{labels} labels, {bytes} bytes"
    );
    assert!(labels < names.len() as u64);

    // A name already interned still parses; a fresh attribute name is
    // refused where it starts.
    let known = format!("<r {}='1'><{}/></r>", names[0], names[1]);
    Tree::parse(&known).unwrap();
    let fresh = format!("<r {}='1'/>", long_name(5000));
    let (msg, at) = refused_at(&fresh);
    assert!(msg.contains("alphabet"), "{msg}");
    assert_eq!(at, 3, "points at the attribute name");

    // Names the program supplies are interned regardless, and from then
    // on are known to the parsers too.
    let name = long_name(6000);
    assert!(Label::try_new(&name).is_err());
    let label = Label::new(&name);
    assert_eq!(Label::try_new(&name), Ok(label));
    assert_eq!(interner_stats().0, labels + 1);
}
