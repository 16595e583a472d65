//! Lazy activation answers what full activation answers.
//!
//! `query_document` fires a lazy call only where what its service's plan
//! can answer meets what the query can see (`axml_query::shape`). Over
//! random documents holding up to six lazy calls to random declarative
//! services, and random path queries, its answer must equal the query's
//! over the same document with every lazy call fired — which is what a
//! wildcard `query_document` does, whatever the inference says. Answers
//! are compared as canonical multisets.
//!
//! The services construct nested elements and splice elements, text
//! (`{$i/text()}`) and attribute atoms, at the root of an answer and below
//! it; the queries take child and descendant steps with label, `*`,
//! `text()` and `@a` tests. Over the run, the share of calls skipped is
//! stated and must not be zero, so the property is not vacuous.

use axml::prelude::*;
use axml_prng::SplitMix64;

/// Random documents, services and queries per run.
const CASES: usize = 2000;

/// The labels documents, templates and queries draw from. `text` is the
/// label of the element an atom is answered in.
const LABELS: [&str; 4] = ["a", "b", "c", "text"];

fn label(rng: &mut SplitMix64) -> &'static str {
    LABELS[rng.gen_range(0..LABELS.len())]
}

/// A random element of depth at most `depth`, with an `a` attribute and
/// text now and then.
fn element(rng: &mut SplitMix64, depth: usize, out: &mut String) {
    let l = label(rng);
    out.push('<');
    out.push_str(l);
    if rng.gen_bool(0.3) {
        out.push_str(&format!(r#" a="v{}""#, rng.gen_range(0..3)));
    }
    out.push('>');
    if rng.gen_bool(0.3) {
        out.push_str(&format!("t{}", rng.gen_range(0..3)));
    }
    if depth > 0 {
        for _ in 0..rng.gen_range(0..3) {
            element(rng, depth - 1, out);
        }
    }
    out.push_str("</");
    out.push_str(l);
    out.push('>');
}

/// A client document: a random tree with `calls` lazy calls placed under
/// random elements, each to one of `services`.
fn client_doc(rng: &mut SplitMix64, calls: usize, services: usize) -> String {
    let mut xml = String::new();
    element(rng, 3, &mut xml);
    for _ in 0..calls {
        // after a random start tag of the tree's own, so the call's parent
        // is random
        let opens = |i: usize| {
            LABELS.iter().any(|l| {
                xml[i + 1..].starts_with(l)
                    && matches!(xml.as_bytes()[i + 1 + l.len()], b'>' | b' ')
            })
        };
        let starts: Vec<usize> = xml
            .match_indices('<')
            .filter(|&(i, _)| opens(i))
            .map(|(i, _)| i + xml[i..].find('>').unwrap() + 1)
            .collect();
        let at = starts[rng.gen_range(0..starts.len())];
        let sc = format!(
            r#"<sc mode="lazy"><peer>p1</peer><service>s{}</service></sc>"#,
            rng.gen_range(0..services)
        );
        xml.insert_str(at, &sc);
    }
    xml
}

/// A template over `$i`: a spliced element, text or attribute atom, or a
/// constructed element with templates below it.
fn template(rng: &mut SplitMix64, depth: usize, out: &mut String) {
    match rng.gen_range(0..if depth == 0 { 5 } else { 7 }) {
        0 => out.push_str("{$i}"),
        1 => out.push_str(&format!("{{$i/{}}}", label(rng))),
        2 => out.push_str(&format!("{{$i//{}}}", label(rng))),
        3 => out.push_str("{$i/text()}"),
        4 => out.push_str("{$i/@a}"),
        _ => {
            let l = label(rng);
            out.push_str(&format!("<{l}"));
            if rng.gen_bool(0.3) {
                out.push_str(r#" a="{$i/@a}""#);
            }
            out.push('>');
            for _ in 0..rng.gen_range(0..3) {
                if rng.gen_bool(0.2) {
                    out.push_str("lit");
                } else {
                    template(rng, depth - 1, out);
                }
            }
            out.push_str(&format!("</{l}>"));
        }
    }
}

/// A service reading the server's `src` document.
fn service(rng: &mut SplitMix64) -> String {
    let axis = if rng.gen_bool(0.5) { "/" } else { "//" };
    let test = if rng.gen_bool(0.2) { "*" } else { label(rng) };
    let mut src = format!(r#"for $i in doc("src"){axis}{test} return "#);
    template(rng, 2, &mut src);
    src
}

/// A path over `$0` of one to three steps; the last may read an atom.
fn query(rng: &mut SplitMix64) -> String {
    let mut q = String::from("$0");
    let steps = rng.gen_range(1..=3);
    for i in 0..steps {
        q.push_str(if rng.gen_bool(0.5) { "/" } else { "//" });
        let last = i + 1 == steps;
        match rng.gen_range(0..if last { 10 } else { 8 }) {
            0 => q.push('*'),
            8 => q.push_str("text()"),
            9 => q.push_str("@a"),
            _ => q.push_str(label(rng)),
        }
    }
    q
}

fn system(src: &str, services: &[String], doc: &str) -> (AxmlSystem, PeerId) {
    let mut b = AxmlSystem::builder()
        .peers(["client", "server"])
        .link("client", "server", LinkCost::wan())
        .doc("server", "src", src)
        .doc("client", "d", doc);
    for (i, s) in services.iter().enumerate() {
        b = b.service("server", format!("s{i}"), s);
    }
    let sys = b.build().unwrap();
    let client = sys.peer_id("client").unwrap();
    (sys, client)
}

#[test]
fn lazy_answers_equal_full_activation() {
    let mut rng = SplitMix64::new(0x1A2_7E1E);
    let everything = Query::parse("all", "$0//*").unwrap();
    let d: DocName = "d".into();
    let (mut calls, mut fired) = (0, 0);
    for case in 0..CASES {
        let mut src = String::from("<src>");
        for _ in 0..rng.gen_range(1..4) {
            element(&mut rng, 2, &mut src);
        }
        src.push_str("</src>");
        let services: Vec<String> = (0..rng.gen_range(1..4))
            .map(|_| service(&mut rng))
            .collect();
        let n = rng.gen_range(1..=6);
        let doc = client_doc(&mut rng, n, services.len());
        let text = query(&mut rng);
        let q = Query::parse("q", &text).unwrap();

        let (mut lazy, client) = system(&src, &services, &doc);
        let (answer, k) = lazy.query_document(client, &d, &q).unwrap();

        let (mut full, client) = system(&src, &services, &doc);
        let (_, all) = full.query_document(client, &d, &everything).unwrap();
        assert_eq!(all, n, "a wildcard query fires every call");
        let activated = full.peer(client).docs.get(&d).unwrap().tree().clone();
        let expected = q.eval_batch(&[vec![activated]]).unwrap();

        assert!(
            forest_equiv(&answer, &expected),
            "case {case}: `{text}` answers {} tree(s) lazily, {} fully\n\
             document: {doc}\nservices: {services:#?}\nsource: {src}",
            answer.len(),
            expected.len()
        );
        calls += n;
        fired += k;
    }
    let skipped = (calls - fired) as f64 / calls as f64;
    println!(
        "{fired} of {calls} lazy calls fired, {:.1} % skipped",
        100.0 * skipped
    );
    assert!(fired > 0, "no call ever fired");
    assert!(skipped > 0.0, "no call was ever skipped");
}
